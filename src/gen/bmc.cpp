#include "gen/bmc.hpp"

#include <cassert>

#include "gen/circuit.hpp"
#include "util/strings.hpp"

namespace gridsat::gen {

Netlist::Netlist() {
  nodes_.push_back(Node{});  // node 0: constant false
}

Signal Netlist::add_input(std::string name) {
  Node node;
  node.kind = NodeKind::kInput;
  node.name = std::move(name);
  nodes_.push_back(std::move(node));
  const auto index = static_cast<std::uint32_t>(nodes_.size() - 1);
  inputs_.push_back(index);
  return Signal{index, false};
}

Signal Netlist::add_latch(bool reset_value, std::string name) {
  Node node;
  node.kind = NodeKind::kLatch;
  node.reset_value = reset_value;
  node.name = std::move(name);
  nodes_.push_back(std::move(node));
  const auto index = static_cast<std::uint32_t>(nodes_.size() - 1);
  latches_.push_back(index);
  return Signal{index, false};
}

Signal Netlist::add_and(Signal a, Signal b) {
  Node node;
  node.kind = NodeKind::kAnd;
  node.a = a;
  node.b = b;
  nodes_.push_back(std::move(node));
  const auto index = static_cast<std::uint32_t>(nodes_.size() - 1);
  gates_.push_back(index);
  return Signal{index, false};
}

Signal Netlist::add_xor(Signal a, Signal b) {
  // a ^ b = (a | b) & !(a & b)
  return add_and(add_or(a, b), !add_and(a, b));
}

Signal Netlist::add_mux(Signal sel, Signal if_true, Signal if_false) {
  return add_or(add_and(sel, if_true), add_and(!sel, if_false));
}

void Netlist::connect(Signal latch, Signal next) {
  assert(!latch.negated && "connect the latch node itself, not a negation");
  assert(nodes_.at(latch.node).kind == NodeKind::kLatch);
  nodes_[latch.node].next = next;
}

/// Frame-by-frame unroller: maps each netlist node to a CNF literal per
/// time frame, reusing CircuitBuilder for the Tseitin encoding.
struct NetlistUnroller {
  const Netlist& netlist;
  CircuitBuilder cb;
  /// literal of node n at the current frame / previous frame.
  std::vector<cnf::Lit> current;

  explicit NetlistUnroller(const Netlist& n)
      : netlist(n), current(n.nodes_.size(), cnf::kUndefLit) {}

  cnf::Lit lit_of(Signal s) const {
    const cnf::Lit base = current[s.node];
    return s.negated ? ~base : base;
  }

  void build_frame(bool first) {
    std::vector<cnf::Lit> previous = current;
    // Inputs: fresh every frame. Latches: reset constants in frame 0,
    // else the previous frame's next-state function value.
    current[0] = cb.constant(false);
    for (const std::uint32_t n : netlist.inputs_) {
      current[n] = cb.input();
    }
    for (const std::uint32_t n : netlist.latches_) {
      if (first) {
        current[n] = cb.constant(netlist.nodes_[n].reset_value);
      } else {
        const Signal next = netlist.nodes_[n].next;
        const cnf::Lit base = previous[next.node];
        current[n] = next.negated ? ~base : base;
      }
    }
    // Gates in creation order (operands always precede uses).
    for (const std::uint32_t n : netlist.gates_) {
      const Node& node = netlist.nodes_[n];
      current[n] = cb.and_gate(lit_of(node.a), lit_of(node.b));
    }
  }

  using Node = Netlist::Node;
};

cnf::CnfFormula Netlist::unroll(std::size_t steps) const {
  NetlistUnroller unroller(*this);
  std::vector<cnf::Lit> bad_at;
  // The latch's frame-k value depends on the *gate outputs* of frame
  // k-1, so gates of a frame must be built before advancing; the
  // unroller keeps the full node->lit map per frame.
  for (std::size_t frame = 0; frame <= steps; ++frame) {
    unroller.build_frame(frame == 0);
    bad_at.push_back(unroller.lit_of(bad_));
  }
  unroller.cb.assert_lit(unroller.cb.or_many(bad_at));
  return unroller.cb.take();
}

// --- models ---------------------------------------------------------------

Netlist lfsr_equivalence(std::size_t bits, bool plant_bug) {
  assert(bits >= 3);
  Netlist net;
  // Two Fibonacci LFSRs with taps at bit 0 and bit 1, both seeded
  // 100...0; implementation B computes its feedback through a rewritten
  // (but equivalent) expression unless a bug is planted.
  std::vector<Signal> a(bits), b(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    a[i] = net.add_latch(i == 0, util::indexed_name("a", i));
    b[i] = net.add_latch(i == 0, util::indexed_name("b", i));
  }
  const Signal fb_a = net.add_xor(a[0], a[1]);
  // !(x ^ y) == (x & y) | (!x & !y); so x ^ y == !( ... ) — implementation
  // B builds the complement form.
  Signal fb_b = !net.add_or(net.add_and(b[0], b[1]),
                            net.add_and(!b[0], !b[1]));
  if (plant_bug) fb_b = !fb_b;
  for (std::size_t i = 0; i + 1 < bits; ++i) {
    net.connect(a[i], a[i + 1]);
    net.connect(b[i], b[i + 1]);
  }
  net.connect(a[bits - 1], fb_a);
  net.connect(b[bits - 1], fb_b);
  // Miter: any state bit differs.
  Signal differ = kFalseSignal;
  for (std::size_t i = 0; i < bits; ++i) {
    differ = net.add_or(differ, net.add_xor(a[i], b[i]));
  }
  net.set_bad(differ);
  return net;
}

Netlist token_ring_arbiter(std::size_t stations, bool plant_bug) {
  assert(stations >= 2);
  Netlist net;
  // One token latch per station; the token rotates each cycle. With the
  // bug, station 1 also starts with a token.
  std::vector<Signal> token(stations);
  for (std::size_t i = 0; i < stations; ++i) {
    const bool reset = (i == 0) || (plant_bug && i == 1);
    token[i] = net.add_latch(reset, util::indexed_name("t", i));
  }
  for (std::size_t i = 0; i < stations; ++i) {
    net.connect(token[i], token[(i + stations - 1) % stations]);
  }
  // A station grants iff it holds the token and its (free) request input
  // is high; bad = two simultaneous grants.
  std::vector<Signal> grant(stations);
  for (std::size_t i = 0; i < stations; ++i) {
    grant[i] = net.add_and(token[i], net.add_input("req" + std::to_string(i)));
  }
  Signal bad = kFalseSignal;
  for (std::size_t i = 0; i < stations; ++i) {
    for (std::size_t j = i + 1; j < stations; ++j) {
      bad = net.add_or(bad, net.add_and(grant[i], grant[j]));
    }
  }
  net.set_bad(bad);
  return net;
}

Netlist counter_overflow(std::size_t bits) {
  assert(bits >= 1);
  Netlist net;
  const Signal enable = net.add_input("enable");
  std::vector<Signal> count(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    count[i] = net.add_latch(false, util::indexed_name("c", i));
  }
  // next = count + enable (ripple increment gated by enable).
  Signal carry = enable;
  for (std::size_t i = 0; i < bits; ++i) {
    net.connect(count[i], net.add_xor(count[i], carry));
    carry = net.add_and(count[i], carry);
  }
  Signal all_ones = kTrueSignal;
  for (std::size_t i = 0; i < bits; ++i) {
    all_ones = net.add_and(all_ones, count[i]);
  }
  net.set_bad(all_ones);
  return net;
}

}  // namespace gridsat::gen
