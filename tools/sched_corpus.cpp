#ifdef CASP_VMPI_SCHED

#include "sched_corpus.hpp"

#include <cstddef>
#include <memory>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace casp::vmpi::corpus {

namespace {

// -- good programs ----------------------------------------------------------

void bcast_tree(Comm& c) {
  Payload data;
  if (c.rank() == 0) {
    std::vector<std::byte> bytes(64);
    for (std::size_t i = 0; i < bytes.size(); ++i)
      bytes[i] = static_cast<std::byte>(i);
    data = Payload::wrap(std::move(bytes));
  }
  Payload out = c.bcast_payload(0, std::move(data));
  CASP_CHECK(out.size() == 64);
  const std::span<const std::byte> v = out.view();
  for (std::size_t i = 0; i < v.size(); ++i)
    CASP_CHECK(v[i] == static_cast<std::byte>(i));
}

void pipeline_ibcast(Comm& c) {
  // Two overlapped broadcast stages, the SUMMA pipelining shape: both posted
  // before either completes, waits in program order on every rank.
  Payload in0;
  Payload in1;
  if (c.rank() == 0)
    in0 = Payload::wrap(std::vector<std::byte>(8, std::byte{0x11}));
  if (c.rank() == 1)
    in1 = Payload::wrap(std::vector<std::byte>(8, std::byte{0x22}));
  PendingBcast b0 = c.ibcast_payload(0, std::move(in0));
  PendingBcast b1 = c.ibcast_payload(1, std::move(in1));
  Payload r0 = c.bcast_wait(b0);
  Payload r1 = c.bcast_wait(b1);
  CASP_CHECK(r0.size() == 8 && r0.view()[0] == std::byte{0x11});
  CASP_CHECK(r1.size() == 8 && r1.view()[0] == std::byte{0x22});
}

void ckpt_consensus(Comm& c) {
  // Checkpoint-resume consensus: every rank proposes its newest complete
  // generation; all must agree on the minimum before fast-forwarding.
  const int local_gen = c.rank() == 0 ? 5 : c.rank() + 2;
  const int agreed = c.allreduce_min(local_gen);
  CASP_CHECK(agreed == 3);
  const std::vector<int> all = c.allgather_value(agreed);
  for (const int g : all) CASP_CHECK(g == 3);
}

void rebatch_consensus(Comm& c) {
  // Degradation consensus: if any rank sees memory pressure, all ranks must
  // take the rebatch branch together.
  const int pressure = c.rank() == 1 ? 1 : 0;
  const int any = c.allreduce_max(pressure);
  CASP_CHECK(any == 1);
  c.barrier();
}

void sole_owner_handoff(Comm& c) {
  // Good twin of sole_owner_race: the acquire-ordered sole-owner check in
  // release_or_copy synchronizes with the receiver's drop, so this must
  // stay clean on EVERY schedule — including the ones that flag the
  // relaxed variant.
  if (c.rank() == 0) {
    Payload p = Payload::wrap(std::vector<std::byte>(32, std::byte{0xab}));
    c.send_payload(1, 7, p);
    const std::vector<std::byte> mine = std::move(p).release_or_copy();
    CASP_CHECK(mine.size() == 32 && mine[0] == std::byte{0xab});
  } else {
    const Payload q = c.recv_payload(0, 7);
    CASP_CHECK(q.size() == 32 && q.view()[0] == std::byte{0xab});
  }
}

// -- known-bug programs -----------------------------------------------------

void crossed_tags(Comm& c) {
  // PR-1 deadlock reproducer: each rank waits on a tag the other never
  // sends. The scheduler reports this exactly (no watchdog sampling) with
  // a replayable schedule attached.
  if (c.rank() == 0) {
    (void)c.recv_payload(1, 1);
  } else {
    (void)c.recv_payload(0, 2);
  }
}

void sole_owner_race(Comm& c) {
  // PR-2 bug reintroduced: the sole-owner check runs relaxed, so on
  // schedules where rank 1 has already dropped its handle, rank 0 steals
  // the allocation without synchronizing with rank 1's reads. On schedules
  // where rank 1 still holds the handle, the copy path runs and nothing is
  // wrong — only exploration finds the bad interleaving.
  if (c.rank() == 0) {
    Payload p = Payload::wrap(std::vector<std::byte>(32, std::byte{0xab}));
    c.send_payload(1, 7, p);
    const std::vector<std::byte> mine =
        std::move(p).release_or_copy_relaxed();
    CASP_CHECK(mine.size() == 32 && mine[0] == std::byte{0xab});
  } else {
    const Payload q = c.recv_payload(0, 7);
    CASP_CHECK(q.size() == 32 && q.view()[0] == std::byte{0xab});
  }
}

void mutation_after_send(Comm& c) {
  // Sender flips a byte in place after the handle crossed the transport —
  // the receiver's zero-copy view races the write.
  if (c.rank() == 0) {
    Payload p = Payload::wrap(std::vector<std::byte>(16, std::byte{0x01}));
    c.send_payload(1, 9, p);
    std::byte* raw = p.unsafe_mutable_data();
    raw[0] = std::byte{0xff};
  } else {
    const Payload q = c.recv_payload(0, 9);
    CASP_CHECK(q.size() == 16);
    (void)q.view();
  }
}

void racing_sends(Comm& c) {
  // Ranks 1 and 2 send the same (dest, tag) with no happens-before order:
  // the mailbox disambiguates by source today, but any refactor to
  // wildcard receives would make message order schedule-dependent.
  if (c.rank() == 1 || c.rank() == 2) {
    c.send_value<int>(0, 7, c.rank());
  }
  if (c.rank() == 0) {
    const int a = c.recv_value<int>(1, 7);
    const int b = c.recv_value<int>(2, 7);
    CASP_CHECK(a == 1 && b == 2);
  }
}

Program ownership_leak_program() {
  // The payload crosses ranks through captured shared state instead of a
  // message — the zero-copy ownership discipline the analyzer enforces.
  auto slot = std::make_shared<Payload>();
  Program p;
  p.name = "ownership_leak";
  p.size = 2;
  p.buggy = true;
  p.expected = "payload_ownership";
  p.body = [slot](Comm& c) {
    if (c.rank() == 0)
      *slot = Payload::wrap(std::vector<std::byte>(8, std::byte{0x5a}));
    c.barrier();
    if (c.rank() == 1)
      CASP_CHECK(slot->size() == 8 && slot->view()[0] == std::byte{0x5a});
    c.barrier();
  };
  return p;
}

/// Deadline-budget program: a correct but long ping-pong whose decision
/// count always outruns the 1 ms virtual budget (10 scheduling decisions at
/// 100 virtual us each). Every schedule must flag "deadline_exceeded" — the
/// deterministic analogue of a tenant blowing its JobSpec::deadline_ms.
Program deadline_budget_program() {
  Program p;
  p.name = "deadline_budget";
  p.size = 2;
  p.buggy = true;
  p.expected = "deadline_exceeded";
  p.deadline_ms = 1;
  p.body = [](Comm& c) {
    int token = 0;
    for (int round = 0; round < 16; ++round) {
      if (c.rank() == 0) {
        c.send_value<int>(1, 900 + round, token);
        token = c.recv_value<int>(1, 940 + round);
      } else {
        token = c.recv_value<int>(0, 900 + round) + 1;
        c.send_value<int>(0, 940 + round, token);
      }
    }
  };
  return p;
}

Program make(std::string name, int size, bool buggy, std::string expected,
             void (*body)(Comm&)) {
  Program p;
  p.name = std::move(name);
  p.size = size;
  p.buggy = buggy;
  p.expected = std::move(expected);
  p.body = body;
  return p;
}

}  // namespace

std::vector<Program> programs() {
  std::vector<Program> out;
  out.push_back(make("bcast_tree", 4, false, "", &bcast_tree));
  out.push_back(make("pipeline_ibcast", 4, false, "", &pipeline_ibcast));
  out.push_back(make("ckpt_consensus", 3, false, "", &ckpt_consensus));
  out.push_back(make("rebatch_consensus", 3, false, "", &rebatch_consensus));
  out.push_back(make("sole_owner_handoff", 2, false, "", &sole_owner_handoff));
  out.push_back(make("crossed_tags", 2, true, "deadlock", &crossed_tags));
  out.push_back(
      make("sole_owner_race", 2, true, "sole_owner_race", &sole_owner_race));
  out.push_back(make("mutation_after_send", 2, true, "mutation_after_send",
                     &mutation_after_send));
  out.push_back(make("racing_sends", 3, true, "racing_send", &racing_sends));
  out.push_back(ownership_leak_program());
  out.push_back(deadline_budget_program());
  return out;
}

Program find(const std::string& name) {
  std::vector<Program> all = programs();
  for (Program& p : all) {
    if (p.name == name) return std::move(p);
  }
  std::ostringstream os;
  os << "unknown corpus program \"" << name << "\"; valid names:";
  for (const Program& p : all) os << " " << p.name;
  throw std::invalid_argument(os.str());
}

}  // namespace casp::vmpi::corpus

#endif  // CASP_VMPI_SCHED
