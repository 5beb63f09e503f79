#include "vmpi/pool.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "vmpi/job_exec.hpp"

namespace casp::vmpi {

namespace {

constexpr int kHandshakeTag = 7101;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a64(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t w : words) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (w >> (8 * byte)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// The probation payload both sides regenerate independently: a splitmix64
/// stream keyed by (seed, rank, attempt), so every probation attempt of
/// every rank exchanges a distinct, reproducible buffer.
std::vector<std::uint64_t> handshake_payload(std::uint64_t seed, int rank,
                                             int attempt, int words) {
  std::vector<std::uint64_t> payload(static_cast<std::size_t>(words));
  std::uint64_t x = seed ^ splitmix64(static_cast<std::uint64_t>(rank) * 31 +
                                      static_cast<std::uint64_t>(attempt));
  for (std::uint64_t& w : payload) {
    x = splitmix64(x);
    w = x;
  }
  return payload;
}

}  // namespace

const char* to_string(RankHealth health) {
  switch (health) {
    case RankHealth::kAlive: return "alive";
    case RankHealth::kSuspect: return "suspect";
    case RankHealth::kDead: return "dead";
    case RankHealth::kProbation: return "probation";
    case RankHealth::kQuarantined: return "quarantined";
  }
  return "unknown";
}

RankPool::RankPool(int size) : size_(size) {
  CASP_CHECK_MSG(size >= 1, "rank pool needs at least one rank");
  health_.assign(static_cast<std::size_t>(size), RankHealth::kAlive);
  probation_failures_.assign(static_cast<std::size_t>(size), 0);
  slots_.resize(static_cast<std::size_t>(size));
  workers_.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r)
    workers_.emplace_back([this, r]() { worker_main(r); });
}

bool RankPool::transition(int rank, RankHealth next) {
  RankHealth& cur = health_[static_cast<std::size_t>(rank)];
  bool legal = false;
  switch (cur) {
    case RankHealth::kAlive:
      legal = next == RankHealth::kSuspect || next == RankHealth::kDead;
      break;
    case RankHealth::kSuspect:
      legal = next == RankHealth::kAlive || next == RankHealth::kDead;
      break;
    case RankHealth::kDead:
      legal = next == RankHealth::kProbation;
      break;
    case RankHealth::kProbation:
      legal = next == RankHealth::kAlive || next == RankHealth::kDead ||
              next == RankHealth::kProbation ||
              next == RankHealth::kQuarantined;
      break;
    case RankHealth::kQuarantined:
      legal = false;  // terminal: a quarantined rank never re-enters
      break;
  }
  if (!legal) return false;
  if (cur != next) cur = next;
  return true;
}

RankHealth RankPool::health(int rank) const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  if (rank < 0 || rank >= size_) return RankHealth::kDead;
  return health_[static_cast<std::size_t>(rank)];
}

void RankPool::mark_dead(int rank) {
  if (rank < 0 || rank >= size_) return;
  std::lock_guard<std::mutex> lock(health_mutex_);
  // Dead is sticky and quarantine is terminal: transition() refuses the
  // kDead -> kDead and kQuarantined -> kDead edges, which is exactly the
  // idempotence this call needs.
  transition(rank, RankHealth::kDead);
}

void RankPool::mark_suspect(int rank) {
  if (rank < 0 || rank >= size_) return;
  std::lock_guard<std::mutex> lock(health_mutex_);
  // Only kAlive -> kSuspect is legal: a suspect verdict never resurrects a
  // dead, probationary or quarantined rank.
  transition(rank, RankHealth::kSuspect);
}

void RankPool::clear_suspects() {
  std::lock_guard<std::mutex> lock(health_mutex_);
  for (int r = 0; r < size_; ++r)
    if (health_[static_cast<std::size_t>(r)] == RankHealth::kSuspect)
      transition(r, RankHealth::kAlive);
}

std::vector<int> RankPool::alive_ranks() const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  std::vector<int> alive;
  for (int r = 0; r < size_; ++r) {
    const RankHealth h = health_[static_cast<std::size_t>(r)];
    if (h == RankHealth::kAlive || h == RankHealth::kSuspect)
      alive.push_back(r);
  }
  return alive;
}

int RankPool::alive_count() const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  int n = 0;
  for (const RankHealth& h : health_)
    if (h == RankHealth::kAlive || h == RankHealth::kSuspect) ++n;
  return n;
}

bool RankPool::request_rejoin(int rank) {
  if (rank < 0 || rank >= size_) return false;
  std::lock_guard<std::mutex> lock(health_mutex_);
  if (health_[static_cast<std::size_t>(rank)] != RankHealth::kDead)
    return false;
  return transition(rank, RankHealth::kProbation);
}

std::vector<int> RankPool::probation_ranks() const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  std::vector<int> out;
  for (int r = 0; r < size_; ++r)
    if (health_[static_cast<std::size_t>(r)] == RankHealth::kProbation)
      out.push_back(r);
  return out;
}

std::vector<int> RankPool::quarantined_ranks() const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  std::vector<int> out;
  for (int r = 0; r < size_; ++r)
    if (health_[static_cast<std::size_t>(r)] == RankHealth::kQuarantined)
      out.push_back(r);
  return out;
}

int RankPool::probation_failures(int rank) const {
  if (rank < 0 || rank >= size_) return 0;
  std::lock_guard<std::mutex> lock(health_mutex_);
  return probation_failures_[static_cast<std::size_t>(rank)];
}

std::vector<int> RankPool::admit_probationers(
    const MembershipOptions& options) {
  std::vector<int> admitted;
  for (const int candidate : probation_ranks()) {
    // Verifier: the lowest alive rank whose dispatch slot is idle (a busy
    // rank is mid-job on another split and must not be borrowed). The
    // candidate's own slot is idle by construction — probationary ranks are
    // never scheduled.
    int verifier = -1;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const int r : alive_ranks()) {
        if (slots_[static_cast<std::size_t>(r)].ticket == nullptr) {
          verifier = r;
          break;
        }
      }
    }
    if (verifier < 0) continue;  // nobody free to vouch; retry next round

    const int attempt = probation_failures(candidate);
    const bool corrupt =
        options.corrupt && options.corrupt(candidate, attempt);
    const std::uint64_t seed = options.handshake_seed;
    const int words = options.handshake_words;
    auto passed = std::make_shared<bool>(false);
    // 2-rank handshake job. Pool members must be ascending, so the
    // candidate's job-world rank depends on which side of the verifier it
    // sits; roles are keyed by local rank, not by a fixed slot. The
    // candidate echoes the seeded payload plus its FNV-1a64 checksum; the
    // verifier regenerates the stream independently and compares both.
    const int cand_local = candidate < verifier ? 0 : 1;
    const int ver_local = 1 - cand_local;
    const auto body = [candidate, attempt, corrupt, seed, words, passed,
                       cand_local, ver_local](Comm& comm) {
      if (comm.rank() == cand_local) {
        std::vector<std::uint64_t> payload =
            handshake_payload(seed, candidate, attempt, words);
        if (corrupt && !payload.empty()) payload[0] ^= 1ULL;
        const std::uint64_t checksum = fnv1a64(payload);
        comm.send_vec<std::uint64_t>(ver_local, kHandshakeTag, payload);
        comm.send_value<std::uint64_t>(ver_local, kHandshakeTag + 1,
                                       checksum);
        (void)comm.recv_value<int>(ver_local, kHandshakeTag + 2);
      } else {
        const std::vector<std::uint64_t> echoed =
            comm.recv_vec<std::uint64_t>(cand_local, kHandshakeTag);
        const std::uint64_t checksum =
            comm.recv_value<std::uint64_t>(cand_local, kHandshakeTag + 1);
        const std::vector<std::uint64_t> expected =
            handshake_payload(seed, candidate, attempt, words);
        const bool ok =
            echoed == expected && checksum == fnv1a64(expected);
        *passed = ok;
        comm.send_value<int>(cand_local, kHandshakeTag + 2, ok ? 1 : 0);
      }
    };
    RunOptions opts;
    opts.capture_failure = true;  // a crashing candidate fails, not throws
    const JobTicketPtr ticket = start_job_on(
        {std::min(verifier, candidate), std::max(verifier, candidate)}, body,
        opts);
    const RunResult rr = finish_job(ticket);
    const bool ok = !rr.failed() && *passed;

    std::lock_guard<std::mutex> lock(health_mutex_);
    if (ok) {
      if (transition(candidate, RankHealth::kAlive))
        admitted.push_back(candidate);
    } else {
      int& failures =
          probation_failures_[static_cast<std::size_t>(candidate)];
      ++failures;
      transition(candidate, failures >= options.max_failures
                                ? RankHealth::kQuarantined
                                : RankHealth::kProbation);
    }
  }
  return admitted;
}

RankPool::~RankPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  dispatch_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void RankPool::worker_main(int rank) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    dispatch_cv_.wait(lock, [&]() {
      return stop_ || slots_[static_cast<std::size_t>(rank)].ticket != nullptr;
    });
    if (stop_) return;
    const JobTicketPtr ticket = slots_[static_cast<std::size_t>(rank)].ticket;
    const int local = slots_[static_cast<std::size_t>(rank)].local_rank;
    lock.unlock();
    // rank_main never throws: job errors are captured into the JobExec and
    // surfaced by finalize() on the launcher thread, so a crashing tenant
    // cannot take the resident worker down with it.
    ticket->job->rank_main(local, ticket->body);
    lock.lock();
    slots_[static_cast<std::size_t>(rank)].ticket = nullptr;
    slots_[static_cast<std::size_t>(rank)].local_rank = -1;
    ++ticket->ranks_done;
    if (ticket->ranks_done == static_cast<int>(ticket->members.size()))
      done_cv_.notify_all();
  }
}

JobTicketPtr RankPool::start_job_on(const std::vector<int>& members,
                                    std::function<void(Comm&)> body,
                                    const RunOptions& options) {
  CASP_CHECK_MSG(!members.empty(), "pool job needs at least one member rank");
  CASP_CHECK_MSG(std::is_sorted(members.begin(), members.end()) &&
                     std::adjacent_find(members.begin(), members.end()) ==
                         members.end(),
                 "pool job members must be ascending and distinct");
  auto ticket = std::make_shared<JobTicket>();
  ticket->members = members;
  ticket->body = std::move(body);
  ticket->capture_failure = options.capture_failure;
  // Fresh world per job: mailboxes, fault state, and sched state must not
  // leak between tenants (an aborted job strands queued messages by
  // design). The world is sized to the member set, so the body sees a
  // dense [0, members.size()) rank space wherever the job landed.
  ticket->job = std::make_shared<detail::JobExec>(
      static_cast<int>(members.size()), options);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const int r : members)
      CASP_CHECK_MSG(r >= 0 && r < size_ &&
                         slots_[static_cast<std::size_t>(r)].ticket == nullptr,
                     "pool job member rank out of range or busy");
    for (std::size_t i = 0; i < members.size(); ++i) {
      Slot& slot = slots_[static_cast<std::size_t>(members[i])];
      slot.ticket = ticket;
      slot.local_rank = static_cast<int>(i);
    }
  }
  dispatch_cv_.notify_all();
  ticket->job->start_watchdog();
  return ticket;
}

RunResult RankPool::finish_job(const JobTicketPtr& ticket) {
  CASP_CHECK_MSG(ticket != nullptr && ticket->job != nullptr,
                 "finish_job needs a live ticket");
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&]() {
      return ticket->ranks_done == static_cast<int>(ticket->members.size());
    });
  }
  ticket->job->stop_watchdog();
  ++jobs_run_;
  return ticket->job->finalize(ticket->capture_failure);
}

std::vector<int> RankPool::idle_ranks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> idle;
  for (int r = 0; r < size_; ++r)
    if (slots_[static_cast<std::size_t>(r)].ticket == nullptr)
      idle.push_back(r);
  return idle;
}

RunResult RankPool::run_job(const std::function<void(Comm&)>& body,
                            const RunOptions& options) {
  std::vector<int> all(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) all[static_cast<std::size_t>(r)] = r;
  return finish_job(start_job_on(all, body, options));
}

}  // namespace casp::vmpi
