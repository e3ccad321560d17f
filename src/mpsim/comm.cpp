#include "mpsim/comm.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "mpsim/fault.hpp"
#include "mpsim/internal.hpp"

namespace drcm::mps {

// ---------------------------------------------------------------------------
// BarrierRegistry: lets the runtime tear down every communicator (including
// splits created mid-run) when one rank fails, so surviving ranks blocked in
// a collective throw PoisonedError instead of deadlocking. It also carries
// the watchdog configuration every barrier consults: a wall-clock budget and
// a diagnostic callback (the runtime's per-rank last-entered table).

class BarrierRegistry {
 public:
  void register_barrier(const std::shared_ptr<PoisonableBarrier>& b);
  void poison_all();

  /// Called by Runtime::run BEFORE any rank thread starts (thread creation
  /// provides the happens-before; no locking needed on the read side).
  void configure_watchdog(double seconds, std::function<std::string()> diag) {
    watchdog_seconds_ = seconds;
    diagnostic_ = std::move(diag);
  }

  double watchdog_seconds() const { return watchdog_seconds_; }
  std::string diagnostic() const {
    return diagnostic_ ? diagnostic_() : std::string();
  }

 private:
  std::mutex mu_;
  bool poisoned_ = false;
  std::vector<std::weak_ptr<PoisonableBarrier>> barriers_;
  double watchdog_seconds_ = 0.0;
  std::function<std::string()> diagnostic_;
};

class PoisonableBarrier {
 public:
  explicit PoisonableBarrier(int n, const BarrierRegistry* registry)
      : n_(n), registry_(registry) {}

  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mu_);
    if (poisoned_) throw PoisonedError{};
    const std::uint64_t my_generation = generation_;
    if (++waiting_ == n_) {
      waiting_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    const double budget = registry_ ? registry_->watchdog_seconds() : 0.0;
    if (budget <= 0.0) {
      cv_.wait(lock, [&] { return generation_ != my_generation || poisoned_; });
    } else if (!cv_.wait_for(
                   lock, std::chrono::duration<double>(budget),
                   [&] { return generation_ != my_generation || poisoned_; })) {
      // Watchdog: the communicator never completed within budget — some
      // member is stalled (or exited without arriving). Kill this barrier
      // so fellow waiters throw PoisonedError, then report who got where;
      // the runtime's poisoning cascade reaches every other communicator.
      poisoned_ = true;
      cv_.notify_all();
      lock.unlock();
      throw WatchdogTimeoutError(
          "barrier watchdog fired: communicator incomplete after " +
          std::to_string(budget) + "s\n" +
          (registry_ ? registry_->diagnostic() : std::string()));
    }
    if (generation_ == my_generation && poisoned_) throw PoisonedError{};
  }

  void poison() {
    std::lock_guard<std::mutex> lock(mu_);
    poisoned_ = true;
    cv_.notify_all();
  }

 private:
  const int n_;
  const BarrierRegistry* registry_;
  int waiting_ = 0;
  std::uint64_t generation_ = 0;
  bool poisoned_ = false;
  std::mutex mu_;
  std::condition_variable cv_;
};

void BarrierRegistry::register_barrier(
    const std::shared_ptr<PoisonableBarrier>& b) {
  std::lock_guard<std::mutex> lock(mu_);
  barriers_.push_back(b);
  if (poisoned_) b->poison();
}

void BarrierRegistry::poison_all() {
  std::lock_guard<std::mutex> lock(mu_);
  poisoned_ = true;
  for (auto& weak : barriers_) {
    if (auto b = weak.lock()) b->poison();
  }
}

// ---------------------------------------------------------------------------
// Collective tags: every collective entry fixes (op, phase, per-rank
// sequence number) packed into one word, and every crossing publishes and
// checks it; see Comm::cross_barrier for why that check is race-free.

const char* coll_op_name(CollOp op) {
  switch (op) {
    case CollOp::kNone: return "none";
    case CollOp::kBarrier: return "barrier";
    case CollOp::kBcast: return "bcast";
    case CollOp::kAllreduce: return "allreduce";
    case CollOp::kAllgather: return "allgather";
    case CollOp::kAllgatherv: return "allgatherv";
    case CollOp::kAlltoallv: return "alltoallv";
    case CollOp::kExscan: return "exscan";
    case CollOp::kGatherv: return "gatherv";
    case CollOp::kScatterv: return "scatterv";
    case CollOp::kReduce: return "reduce";
    case CollOp::kPairwise: return "pairwise-exchange";
    case CollOp::kFusedGatherRouteCount: return "fused-gather-route-count";
    case CollOp::kFusedOrderLevel: return "fused-order-level";
    case CollOp::kSplit: return "split";
  }
  return "unknown";
}

std::uint64_t pack_collective_tag(CollOp op, Phase phase, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(op) << 56) |
         (static_cast<std::uint64_t>(phase) << 48) |
         (seq & 0x0000FFFFFFFFFFFFULL);
}

std::string describe_collective_tag(std::uint64_t tag) {
  if (tag == 0) return "<no collective>";
  const auto op = static_cast<CollOp>((tag >> 56) & 0xFF);
  const auto phase = static_cast<Phase>((tag >> 48) & 0xFF);
  const std::uint64_t seq = tag & 0x0000FFFFFFFFFFFFULL;
  return std::string(coll_op_name(op)) + " #" + std::to_string(seq) + " [" +
         std::string(phase_name(phase)) + "]";
}

// ---------------------------------------------------------------------------
// CommContext: shared state of one communicator.

class CommContext {
 public:
  /// One rank's slot on a publication board (guarded by barrier crossings,
  /// not by a mutex). Payloads are COPIED into slot-owned arenas at publish
  /// time, so a peer reading a slot never dereferences memory owned by the
  /// publishing rank's frames: a rank that unwinds (injected fault,
  /// mismatch error, check failure) cannot leave dangling pointers behind
  /// for ranks still inside a collective. The arenas keep their capacity
  /// across calls, so steady-state publication allocates nothing.
  struct alignas(64) Slot {
    /// Collective tag. Atomic so a genuinely mismatched program (ranks
    /// racing on the board) stays defined behavior and still yields a
    /// deterministic mismatch report.
    std::atomic<std::uint64_t> tag{0};
    std::int64_t word = 0;
    std::vector<std::byte> span;
    std::uint64_t span_count = 0;
    std::vector<std::byte> table;  // per-destination payloads, flattened
    std::vector<const void*> table_ptrs;
    std::vector<std::uint64_t> table_counts;
  };

  CommContext(int size, std::shared_ptr<BarrierRegistry> registry)
      : size_(size),
        registry_(std::move(registry)),
        barrier_(std::make_shared<PoisonableBarrier>(size, registry_.get())),
        boards_{std::vector<Slot>(static_cast<std::size_t>(size)),
                std::vector<Slot>(static_cast<std::size_t>(size))},
        cursors_(static_cast<std::size_t>(size)),
        split_ctx_(static_cast<std::size_t>(size)),
        split_rank_(static_cast<std::size_t>(size), 0) {
    if (registry_) registry_->register_barrier(barrier_);
  }

  int size() const { return size_; }
  const std::shared_ptr<BarrierRegistry>& registry() const { return registry_; }

  /// Starts `rank`'s next collective: fixes the tag its crossings publish.
  void begin(int rank, CollOp op, Phase phase) {
    Cursor& c = cursors_[static_cast<std::size_t>(rank)];
    c.tag = pack_collective_tag(op, phase, ++c.seq);
  }
  /// Crossing number `crossings` of `rank`: publish the tag on the parity
  /// board, arrive, count the crossing.
  void cross(int rank) {
    Cursor& c = cursors_[static_cast<std::size_t>(rank)];
    outgoing(rank).tag.store(c.tag, std::memory_order_relaxed);
    barrier_->arrive_and_wait();
    ++c.crossings;
  }
  std::uint64_t current_tag(int rank) const {
    return cursors_[static_cast<std::size_t>(rank)].tag;
  }

  /// `rank`'s slot on the board its next crossing publishes.
  Slot& outgoing(int rank) {
    const auto r = static_cast<std::size_t>(rank);
    return boards_[cursors_[r].crossings & 1][r];
  }
  /// Peer `r`'s slot on the board of `rank`'s last crossing. Every member
  /// has made the same number of crossings whenever it reads (each
  /// crossing is one barrier generation), so parity agrees across ranks.
  const Slot& incoming(int rank, int r) const {
    const auto me = static_cast<std::size_t>(rank);
    return boards_[(cursors_[me].crossings - 1) & 1][static_cast<std::size_t>(r)];
  }

  void publish_span(int rank, const void* data, std::uint64_t count,
                    std::size_t elem_bytes) {
    Slot& slot = outgoing(rank);
    const std::size_t bytes = static_cast<std::size_t>(count) * elem_bytes;
    slot.span.resize(bytes);
    if (bytes != 0) std::memcpy(slot.span.data(), data, bytes);
    slot.span_count = count;
  }

  // One rank's per-destination buffers land flattened in its table arena;
  // the published pointer/count tables point at the arena copies.
  void publish_table(int rank, const void* const* ptrs,
                     const std::uint64_t* counts, std::size_t elem_bytes) {
    Slot& slot = outgoing(rank);
    const auto n = static_cast<std::size_t>(size_);
    std::size_t total_bytes = 0;
    for (std::size_t d = 0; d < n; ++d) {
      total_bytes += static_cast<std::size_t>(counts[d]) * elem_bytes;
    }
    slot.table.resize(total_bytes);
    slot.table_ptrs.resize(n);
    slot.table_counts.assign(counts, counts + n);
    std::size_t offset = 0;
    for (std::size_t d = 0; d < n; ++d) {
      const std::size_t bytes = static_cast<std::size_t>(counts[d]) * elem_bytes;
      if (bytes != 0) std::memcpy(slot.table.data() + offset, ptrs[d], bytes);
      slot.table_ptrs[d] = slot.table.data() + offset;
      offset += bytes;
    }
  }

  // Comm::split's result table: written by member 0 between the split's
  // two crossings, read by each member after the second. The next write
  // comes after the next split's first crossing, which no member reaches
  // before every member has read.
  std::vector<std::shared_ptr<CommContext>>& split_ctx() { return split_ctx_; }
  std::vector<int>& split_rank() { return split_rank_; }

 private:
  /// Per-rank progress on this communicator, owner-written only. Kept in
  /// the context rather than in Comm because Comm can be copied.
  struct alignas(64) Cursor {
    std::uint64_t crossings = 0;  ///< barrier crossings so far
    std::uint64_t seq = 0;        ///< collectives entered so far
    std::uint64_t tag = 0;        ///< tag of the collective in progress
  };

  const int size_;
  std::shared_ptr<BarrierRegistry> registry_;
  std::shared_ptr<PoisonableBarrier> barrier_;
  std::array<std::vector<Slot>, 2> boards_;
  std::vector<Cursor> cursors_;
  std::vector<std::shared_ptr<CommContext>> split_ctx_;
  std::vector<int> split_rank_;
};

std::shared_ptr<CommContext> make_comm_context(
    int size, const std::shared_ptr<BarrierRegistry>& registry) {
  return std::make_shared<CommContext>(size, registry);
}

std::shared_ptr<BarrierRegistry> make_barrier_registry() {
  return std::make_shared<BarrierRegistry>();
}

void poison_all_barriers(BarrierRegistry& registry) { registry.poison_all(); }

void set_watchdog(BarrierRegistry& registry, double seconds,
                  std::function<std::string()> diagnostic) {
  registry.configure_watchdog(seconds, std::move(diagnostic));
}

// ---------------------------------------------------------------------------
// Comm.

Comm::Comm(std::shared_ptr<CommContext> ctx, int rank, RankState* state,
           const CostModel* model)
    : ctx_(std::move(ctx)), rank_(rank), size_(ctx_->size()), state_(state),
      model_(model) {
  DRCM_CHECK(rank_ >= 0 && rank_ < size_, "rank out of range for communicator");
  DRCM_CHECK(state_ != nullptr && model_ != nullptr,
             "Comm requires rank state and cost model");
}

void Comm::barrier() {
  enter_collective(CollOp::kBarrier);
  cross_barrier();
  charge(model_->barrier(size_));
}

void Comm::enter_collective(CollOp op) {
  RankState& st = *state_;
  const std::uint64_t ordinal = ++st.collectives_entered;
  st.stats.add_collective(st.phase);
  st.last_entered.store(pack_collective_tag(op, st.phase, ordinal),
                        std::memory_order_relaxed);
  if (st.faults != nullptr) {
    if (FaultAction* a = st.faults->find(st.world_rank, ordinal)) {
      a->fired = true;
      switch (a->kind) {
        case FaultKind::kRankDeath:
          throw InjectedFault(a->kind, st.world_rank, ordinal);
        case FaultKind::kAllocFailure:
          throw InjectedAllocFailure(st.world_rank, ordinal);
        case FaultKind::kStall:
          charge_stall(a->stall_modeled_seconds);
          break;
        case FaultKind::kPayloadCorruption:
          st.corrupt_armed = true;
          break;
      }
    }
  }
  ctx_->begin(rank_, op, st.phase);
}

void Comm::cross_barrier() {
  state_->stats.add_crossing(state_->phase);
  ctx_->cross(rank_);
  if (state_->faults != nullptr &&
      state_->faults->delays_reads(state_->world_rank)) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  // The check is race-free in a correct program: every peer stored its tag
  // on this crossing's board before arriving, and none can store on that
  // board again before crossing c + 1, which needs this rank to arrive
  // there first. So any disagreement means the ranks' collective sequences
  // genuinely diverged — at any crossing, final ones and plain barriers
  // included.
  const std::uint64_t mine = ctx_->current_tag(rank_);
  for (int r = 0; r < size_; ++r) {
    const std::uint64_t theirs =
        ctx_->incoming(rank_, r).tag.load(std::memory_order_relaxed);
    if (theirs != mine) {
      throw CollectiveMismatchError(
          "collective mismatch on a " + std::to_string(size_) +
          "-rank communicator: rank " + std::to_string(rank_) + " entered " +
          describe_collective_tag(mine) + " but rank " + std::to_string(r) +
          " entered " + describe_collective_tag(theirs));
    }
  }
}

void Comm::maybe_corrupt(void* data, std::size_t bytes) {
  if (!state_->corrupt_armed || data == nullptr ||
      bytes < sizeof(std::uint64_t)) {
    return;
  }
  state_->corrupt_armed = false;
  std::uint64_t word;
  std::memcpy(&word, data, sizeof(word));
  // Set the exponent region plus one mantissa bit of the first word: an
  // int64 index becomes absurdly large (caught by the receive-path range
  // checks), a double becomes NaN (caught by the solver's finiteness check).
  word |= 0x7FF8000000000000ULL;
  std::memcpy(data, &word, sizeof(word));
}

void Comm::charge_stall(double modeled_seconds) {
  state_->stats.add_compute(state_->phase, 0.0, modeled_seconds);
}

void Comm::publish(const void* ptr, std::uint64_t count,
                   std::size_t elem_bytes) {
  ctx_->publish_span(rank_, ptr, count, elem_bytes);
}

void Comm::publish_arrays(const void* const* ptrs, const std::uint64_t* counts,
                          std::size_t elem_bytes) {
  ctx_->publish_table(rank_, ptrs, counts, elem_bytes);
}

void Comm::publish_word(std::int64_t v) { ctx_->outgoing(rank_).word = v; }

const void* Comm::peer_ptr(int r) const {
  return ctx_->incoming(rank_, r).span.data();
}

std::uint64_t Comm::peer_count(int r) const {
  return ctx_->incoming(rank_, r).span_count;
}

const void* Comm::peer_ptr_array(int r, int dest) const {
  return ctx_->incoming(rank_, r).table_ptrs[static_cast<std::size_t>(dest)];
}

std::uint64_t Comm::peer_count_array(int r, int dest) const {
  return ctx_->incoming(rank_, r).table_counts[static_cast<std::size_t>(dest)];
}

std::int64_t Comm::peer_word(int r) const { return ctx_->incoming(rank_, r).word; }

void Comm::charge(const CommCost& cost) {
  state_->stats.add_comm(state_->phase, cost);
}

Comm Comm::split(int color, int key) {
  DRCM_CHECK(color >= 0, "split color must be non-negative");
  enter_collective(CollOp::kSplit);
  const int mine[2] = {color, key};
  publish(mine, 2, sizeof(int));
  cross_barrier();
  if (rank_ == 0) {
    // Group members by color; within a group rank by (key, old rank).
    const auto member = [&](int r) {
      return static_cast<const int*>(peer_ptr(r));
    };
    std::map<int, std::vector<int>> groups;
    for (int r = 0; r < size_; ++r) groups[member(r)[0]].push_back(r);
    for (auto& [c, members] : groups) {
      std::stable_sort(members.begin(), members.end(), [&](int a, int b) {
        return member(a)[1] < member(b)[1];
      });
      auto child = std::make_shared<CommContext>(
          static_cast<int>(members.size()), ctx_->registry());
      for (int new_rank = 0; new_rank < static_cast<int>(members.size());
           ++new_rank) {
        const auto m = static_cast<std::size_t>(members[static_cast<std::size_t>(new_rank)]);
        ctx_->split_ctx()[m] = child;
        ctx_->split_rank()[m] = new_rank;
      }
    }
  }
  cross_barrier();
  auto child_ctx = ctx_->split_ctx()[static_cast<std::size_t>(rank_)];
  const int child_rank = ctx_->split_rank()[static_cast<std::size_t>(rank_)];
  charge(model_->allgatherv(size_, static_cast<std::uint64_t>(size_)));
  return Comm(std::move(child_ctx), child_rank, state_, model_);
}

void Comm::charge_compute(double units) {
  state_->stats.add_compute(
      state_->phase, units,
      model_->compute_seconds(units) / static_cast<double>(state_->threads));
}

void Comm::note_resident(std::uint64_t elements) {
  state_->stats.note_resident(elements);
}

Phase Comm::set_phase(Phase p) {
  const Phase prev = state_->phase;
  state_->phase = p;
  return prev;
}

}  // namespace drcm::mps
