// SPMD communicator: the MPI substitute the distributed algorithms run on.
//
// Ranks are threads sharing one address space, but the programming model is
// strict message passing: rank-private data is only exchanged through the
// collectives below, all of which are bulk-synchronous (every member of the
// communicator must call the same collective in the same order, exactly as
// MPI requires). The distributed RCM algorithm needs no general,
// unstructured point-to-point traffic (paper Sec. III-IV), so the runtime
// deliberately offers collectives only:
//
//   barrier, bcast, allreduce (deterministic rank-order fold), allgather(v),
//   alltoallv, exscan_sum, pairwise_exchange (the SpMSpV transpose
//   realignment, performed by all ranks at once), and split (MPI_Comm_split:
//   forms the row/column sub-communicators of the 2D grid).
//
// Mechanically, a collective is a sequence of BSP supersteps on a pair of
// "publication boards". A superstep publishes this rank's contribution on
// board[c % 2] (copied into board-owned storage, like an MPI send buffer),
// crosses the communicator's barrier for the c-th time, and reads what it
// needs from peers' slots of the same board. A rank can write board[c % 2]
// again only before crossing c + 2, that is after every rank has arrived at
// crossing c + 1 and so finished its reads from crossing c. That parity
// rule replaces the trailing "everyone has read" crossing: every plain
// collective is ONE crossing, split two, and the fused level kernels one
// per superstep. The barrier's mutex provides all required happens-before
// ordering, and because the boards own every published payload, a rank
// that unwinds mid-run (injected fault, failed check) cannot leave peers
// reading freed memory.
//
// Every operation is charged to the alpha-beta CostModel and attributed to
// the rank's current Phase, which is how the paper's Figures 4-6 breakdowns
// are produced.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "mpsim/cost_model.hpp"
#include "mpsim/stats.hpp"

namespace drcm::mps {

class CommContext;
class BarrierRegistry;
class FaultPlan;

/// Thrown out of a collective when the runtime tears the world down because
/// another rank failed; distinguishes secondary victims from the root cause.
class PoisonedError : public std::runtime_error {
 public:
  PoisonedError() : std::runtime_error("communicator poisoned: another rank failed") {}
};

/// Thrown when members of one communicator enter DIFFERENT collectives (or
/// different counts of the same collective) — the classic silent-deadlock
/// bug, surfaced as a structured error naming both call sites. Detection:
/// before every barrier crossing a rank publishes its collective's
/// op-id/epoch tag on that crossing's parity tag board, and after every
/// crossing it checks all peers' tags on the same board (stable there for a
/// correct program; a racing incorrect program still detects, the message
/// may just name whichever of the offender's collectives was last
/// published).
class CollectiveMismatchError : public std::logic_error {
 public:
  explicit CollectiveMismatchError(const std::string& what)
      : std::logic_error(what) {}
};

/// Thrown out of a barrier crossing when the watchdog budget elapses with
/// the communicator incomplete — a genuinely stalled (or silently exited)
/// rank. Carries the per-rank "last collective entered" diagnostic instead
/// of hanging the job.
class WatchdogTimeoutError : public std::runtime_error {
 public:
  explicit WatchdogTimeoutError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Identity of a collective operation, for the mismatch tags and the
/// watchdog diagnostics.
enum class CollOp : std::uint8_t {
  kNone = 0,
  kBarrier,
  kBcast,
  kAllreduce,
  kAllgather,
  kAllgatherv,
  kAlltoallv,
  kExscan,
  kGatherv,
  kScatterv,
  kReduce,
  kPairwise,
  kFusedGatherRouteCount,
  kFusedOrderLevel,
  kSplit,
};

const char* coll_op_name(CollOp op);

/// The op-id/epoch tag published per collective: op in the top byte, the
/// phase below it, the per-communicator collective ordinal in the rest.
std::uint64_t pack_collective_tag(CollOp op, Phase phase, std::uint64_t seq);
std::string describe_collective_tag(std::uint64_t tag);

/// Per-rank mutable state shared by all communicators a rank holds
/// (world and any splits): the stats recorder, the current phase and the
/// hybrid thread count.
struct RankState {
  StatsRecorder stats;
  Phase phase = Phase::kOther;
  /// OpenMP threads available to this rank's local kernels (the paper's
  /// hybrid configuration: one communicating thread per process, the rest
  /// doing local work). Modeled compute time divides by this; modeled
  /// communication does not — collectives stay single-threaded per rank.
  int threads = 1;
  /// This rank's MPI_COMM_WORLD rank — the coordinate fault plans script
  /// against (sub-communicator ranks differ).
  int world_rank = 0;
  /// Scripted faults (Runtime::RunOptions::faults); null = healthy run.
  FaultPlan* faults = nullptr;
  /// Collectives entered across ALL communicators of this rank: the
  /// ordinal fault plans fire on.
  std::uint64_t collectives_entered = 0;
  /// Set by a payload-corruption fault; the next received payload of at
  /// least one word gets a bit flip, then the flag clears.
  bool corrupt_armed = false;
  /// Last collective this rank entered (packed tag), read by the barrier
  /// watchdog from another thread — hence atomic.
  std::atomic<std::uint64_t> last_entered{0};
};

/// Number of 8-byte words occupied by one element of T (for cost charging).
template <class T>
constexpr std::uint64_t words_of() {
  return (sizeof(T) + 7) / 8;
}

class Comm {
 public:
  Comm(std::shared_ptr<CommContext> ctx, int rank, RankState* state,
       const CostModel* model);
  Comm(const Comm&) = default;
  Comm(Comm&&) = default;
  Comm& operator=(const Comm&) = delete;
  Comm& operator=(Comm&&) = delete;

  int rank() const { return rank_; }
  int size() const { return size_; }
  /// OpenMP threads the hybrid configuration grants this rank's local
  /// kernels (Runtime::run's threads_per_rank; 1 = flat MPI). Shared by all
  /// communicators of the rank, so split row/column comms agree with world.
  int threads() const { return state_->threads; }

  /// Synchronizes all members (and charges the modeled barrier cost).
  void barrier();

  /// Replicates `data` from `root` to every member.
  template <class T>
  void bcast(std::vector<T>& data, int root);

  /// Reduces one value per rank with `combine`, folding in rank order on
  /// every member (deterministic, identical result everywhere). Intended
  /// for small payloads: scalars and argmin-style pairs.
  template <class T, class Combine>
  T allreduce(const T& value, Combine combine);

  /// Each rank contributes one element; returns all `size()` of them.
  template <class T>
  std::vector<T> allgather(const T& value);

  /// Concatenates every rank's span in rank order.
  template <class T>
  std::vector<T> allgatherv(std::span<const T> local);

  /// Personalized all-to-all. `send[d]` goes to rank `d`; the result is the
  /// concatenation, in source-rank order, of what everyone sent to me.
  /// If `recv_counts` is non-null it receives the per-source element counts.
  template <class T>
  std::vector<T> alltoallv(const std::vector<std::vector<T>>& send,
                           std::vector<std::int64_t>* recv_counts = nullptr);

  /// Exclusive prefix sum over ranks (rank 0 gets T{}).
  template <class T>
  T exscan_sum(const T& value);

  /// Concatenates every rank's span on `root` only (others get empty).
  template <class T>
  std::vector<T> gatherv(std::span<const T> local, int root);

  /// Root distributes `chunks[r]` to rank r; returns my chunk.
  template <class T>
  std::vector<T> scatterv(const std::vector<std::vector<T>>& chunks, int root);

  /// Reduce-to-root with a deterministic rank-order fold; non-root ranks
  /// receive a default-constructed T.
  template <class T, class Combine>
  T reduce(const T& value, Combine combine, int root);

  /// Simultaneous pairwise exchange: every member calls this with its
  /// partner's rank (partner==rank() is a local no-op copy). Used for the
  /// SpMSpV transpose realignment where P(i,j) swaps with P(j,i).
  template <class T>
  std::vector<T> pairwise_exchange(int partner, std::span<const T> send);

  /// Fused three-superstep collective for the BFS level kernel
  /// (dist::bfs_level_step): a sub-group allgatherv, an alltoallv of what
  /// `route` makes of the gathered data, and an allreduce-sum of what
  /// `count` makes of the routed data — in THREE barrier crossings, where
  /// the unfused chain of four collectives pays four. Each superstep reads
  /// the board of its crossing and publishes the next one on the other
  /// board, so the read of one round and the publish of the next share a
  /// single crossing (classic BSP):
  ///
  ///   publish my `local` span
  ///   ---- crossing 1 ----
  ///   gather_buf <- concatenation of `gather_peers`' spans (given order);
  ///   route(gather_buf, route_buf); publish route_buf
  ///   ---- crossing 2 ----
  ///   recv_buf <- what every rank routed to me (source-rank order);
  ///   publish count(recv_buf)
  ///   ---- crossing 3 ----
  ///   return the sum of all ranks' counts.
  ///
  /// `route` must size route_buf to exactly size() buffers; both buffer
  /// arguments are caller-owned so steady-state loops reuse capacity.
  /// The callbacks run BETWEEN crossings: they may charge compute but must
  /// not invoke any collective on any communicator. Publishing copies, so
  /// every published buffer may be reused as soon as it is published.
  /// Charged as its component collectives, with the alltoallv latency
  /// priced by the actual destination fan-out (the level kernel routes to
  /// at most sqrt(p) owners, not to all p ranks).
  template <class T, class RouteFn, class CountFn>
  std::int64_t fused_gather_route_count(std::span<const int> gather_peers,
                                        std::span<const T> local,
                                        std::vector<T>& gather_buf,
                                        std::vector<std::vector<T>>& route_buf,
                                        std::vector<T>& recv_buf,
                                        RouteFn&& route, CountFn&& count);

  /// Fused five-superstep collective for the ordering-level kernel
  /// (dist::cm_level_step): extends fused_gather_route_count with a carried
  /// payload on the count superstep and TWO further routed supersteps, so a
  /// whole Cuthill-McKee ordering level (SET + SpMSpV + SELECT + count +
  /// SORTPERM + label scatter) costs FIVE barrier crossings — where the
  /// reference chain pays 3 (fused BFS level) + 3 (SORTPERM's three
  /// collectives) = 6. Superstep schedule (boards alternate by crossing
  /// parity, as everywhere):
  ///
  ///   publish my `local` span
  ///   ---- crossing 1 ----
  ///   gather_buf <- gather_peers' spans; route(); publish route_buf
  ///   ---- crossing 2 ----
  ///   recv_buf <- routed data; n = count_carry(recv_buf, carry_buf);
  ///   publish n and carry_buf
  ///   ---- crossing 3 ----
  ///   total = sum of counts; if total == 0 RETURN (3 crossings: the
  ///   termination level skips the sort tail on every rank uniformly);
  ///   carry_all <- all ranks' carries (rank order);
  ///   sort_route(total, carry_all, sort_route_buf); publish it
  ///   ---- crossing 4 ----
  ///   sort_recv_buf <- routed U data (+ per-source counts);
  ///   rank_route(sort_recv_buf, counts, rank_route_buf); publish it
  ///   ---- crossing 5 ----
  ///   rank_recv_buf <- routed positions; finish(rank_recv_buf); return.
  ///
  /// Callbacks run BETWEEN crossings: they may charge compute and flip the
  /// phase (dist::cm_level_step flips to the sort phase at sort_route, so
  /// crossings 4-5 and the sort-side volume land in the Ordering:Sort
  /// ledger) but must not invoke any collective.
  /// Charged as its component collectives: the head exactly like
  /// fused_gather_route_count, the tail as an allgatherv of the carry plus
  /// two FULL-communicator alltoallvs — the paper prices SORTPERM as an
  /// all-process AlltoAll (the T_SortPerm alpha*p term), and the standalone
  /// sortperm_bucket exchange this replaces is charged the same way.
  template <class T, class U, class H, class RouteFn, class CountCarryFn,
            class SortRouteFn, class RankRouteFn, class FinishFn>
  std::int64_t fused_order_level(
      std::span<const int> gather_peers, std::span<const T> local,
      std::vector<T>& gather_buf, std::vector<std::vector<T>>& route_buf,
      std::vector<T>& recv_buf, std::vector<H>& carry_buf,
      std::vector<H>& carry_all, std::vector<std::vector<U>>& sort_route_buf,
      std::vector<U>& sort_recv_buf,
      std::vector<std::vector<T>>& rank_route_buf,
      std::vector<T>& rank_recv_buf, RouteFn&& route,
      CountCarryFn&& count_carry, SortRouteFn&& sort_route,
      RankRouteFn&& rank_route, FinishFn&& finish);

  /// MPI_Comm_split: members with the same `color` form a new communicator,
  /// ranked by (key, old rank).
  Comm split(int color, int key);

  /// Charges `seconds` of modeled dead time (an injected stall) to the
  /// current phase without any work units: the time shows up in the
  /// modeled makespan, the unit ledger stays honest.
  void charge_stall(double modeled_seconds);

  /// Charges `units` of scalar work to the current phase. The raw unit
  /// ledger records the algorithm's work independent of threading; the
  /// modeled seconds divide by threads(). That is the paper's (and the
  /// trace model's) hybrid pricing — ALL local computation assumed spread
  /// over P * threads cores — applied uniformly so the two cost paths
  /// agree exactly. Executed wall time honors it only where a kernel
  /// actually splits (today the SpMSpV local multiply; serial scans keep
  /// their measured time, the modeled/measured columns diverging there by
  /// design).
  void charge_compute(double units);

  /// Records this rank's CURRENT distributed-state footprint (in scalar
  /// elements) in the resident-memory ledger; the recorder keeps the peak.
  /// The no-gather pipeline notes its live structures at every stage, which
  /// is how the O(nnz/p + n) per-rank bound is asserted.
  void note_resident(std::uint64_t elements);

  /// Sets the phase used for cost attribution; returns the previous phase.
  Phase set_phase(Phase p);
  Phase phase() const { return state_->phase; }

  StatsRecorder& stats() { return state_->stats; }
  const CostModel& cost_model() const { return *model_; }

 private:
  /// The shared three-superstep head of the fused collectives: publish +
  /// gather, route + exchange, count + allreduce — three crossings, charged
  /// as its component collectives. `count_publish(recv_buf)` runs between
  /// crossings 2 and 3 and may also publish a span (the ordering level
  /// rides its histogram carry next to the count there).
  template <class T, class RouteFn, class CountPublishFn>
  std::int64_t fused_head(CollOp op, std::span<const int> gather_peers,
                          std::span<const T> local, std::vector<T>& gather_buf,
                          std::vector<std::vector<T>>& route_buf,
                          std::vector<T>& recv_buf, RouteFn&& route,
                          CountPublishFn&& count_publish);

  /// Entry hook of EVERY collective, called before the first crossing:
  /// bumps the rank's collective counters, fires any scripted fault due at
  /// this ordinal, and fixes the op-id/epoch tag every crossing of this
  /// collective publishes.
  void enter_collective(CollOp op);
  /// Applies the armed payload-corruption fault (if any) to a received
  /// buffer of `bytes` bytes: one deterministic bit flip in the first
  /// word, then the fault disarms. No-op when nothing is armed.
  void maybe_corrupt(void* data, std::size_t bytes);

  // Type-erased board access implemented in comm.cpp. Publishing writes
  // this rank's slot of the board the NEXT crossing uses, and COPIES the
  // payload into context-owned arenas (see CommContext): peers read context
  // memory, never this rank's frames, so a rank that unwinds mid-run cannot
  // leave dangling board pointers behind. The peer_* readers read the
  // board of the LAST crossing. A slot carries one span, one
  // per-destination table and one word.
  void publish(const void* ptr, std::uint64_t count, std::size_t elem_bytes);
  void publish_arrays(const void* const* ptrs, const std::uint64_t* counts,
                      std::size_t elem_bytes);
  void publish_word(std::int64_t v);
  const void* peer_ptr(int r) const;
  std::uint64_t peer_count(int r) const;
  const void* peer_ptr_array(int r, int dest) const;
  std::uint64_t peer_count_array(int r, int dest) const;
  std::int64_t peer_word(int r) const;
  /// One barrier crossing: publishes this collective's tag on the
  /// crossing's parity tag board, records the crossing in the per-phase
  /// barrier_crossings ledger (no modeled seconds), arrives, and then
  /// checks every peer's tag on that board: CollectiveMismatchError names
  /// both call sites on any disagreement. The check runs before the reads
  /// the crossing opens, so a diverged peer's slots are never consumed.
  /// A FaultPlan's delay_reads rank sleeps between arriving and checking.
  void cross_barrier();

  /// Publishes one buffer per destination (an empty table when `bufs` is
  /// null) and returns the total element count.
  template <class T>
  std::uint64_t publish_routed(const std::vector<std::vector<T>>* bufs);
  /// Replaces `out` with what every member routed to this rank on the last
  /// crossing, in source-rank order (per-source counts in src_counts_), and
  /// applies any armed corruption. Returns the element count. Does not
  /// reserve: caller-owned workspace buffers keep their growth pattern.
  template <class T>
  std::uint64_t receive_routed(std::vector<T>& out);
  /// Appends member r's published span to `out`; returns its length.
  template <class T>
  std::uint64_t append_span(std::vector<T>& out, int r) const;

  void charge(const CommCost& cost);

  std::shared_ptr<CommContext> ctx_;
  int rank_;
  int size_;
  RankState* state_;
  const CostModel* model_;
  /// Staging tables for publish_routed and the per-source counts of the
  /// last receive_routed, kept on the Comm (one per rank) so steady-state
  /// level loops allocate nothing per call. Publishing copies, so reuse
  /// across supersteps is safe.
  std::vector<const void*> route_ptrs_;
  std::vector<std::uint64_t> route_counts_;
  std::vector<std::uint64_t> src_counts_;
};

/// RAII phase setter that also attributes measured wall time to the phase.
/// Scopes must not be nested (the RCM driver uses disjoint sequential
/// phases; nesting would double-count wall time).
class PhaseScope {
 public:
  PhaseScope(Comm& comm, Phase phase) : comm_(comm), prev_(comm.set_phase(phase)) {}
  ~PhaseScope() {
    const Phase mine = comm_.set_phase(prev_);
    comm_.stats().add_wall(mine, timer_.seconds());
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Comm& comm_;
  Phase prev_;
  WallTimer timer_;
};

// ---------------------------------------------------------------------------
// Template implementations.

template <class T>
std::uint64_t Comm::publish_routed(const std::vector<std::vector<T>>* bufs) {
  route_ptrs_.assign(static_cast<std::size_t>(size_), nullptr);
  route_counts_.assign(static_cast<std::size_t>(size_), 0);
  std::uint64_t total = 0;
  if (bufs != nullptr) {
    for (std::size_t d = 0; d < route_ptrs_.size(); ++d) {
      route_ptrs_[d] = (*bufs)[d].data();
      route_counts_[d] = (*bufs)[d].size();
      total += route_counts_[d];
    }
  }
  publish_arrays(route_ptrs_.data(), route_counts_.data(), sizeof(T));
  return total;
}

template <class T>
std::uint64_t Comm::receive_routed(std::vector<T>& out) {
  out.clear();
  src_counts_.resize(static_cast<std::size_t>(size_));
  for (int s = 0; s < size_; ++s) {
    const std::uint64_t c = peer_count_array(s, rank_);
    const T* src = static_cast<const T*>(peer_ptr_array(s, rank_));
    out.insert(out.end(), src, src + c);
    src_counts_[static_cast<std::size_t>(s)] = c;
  }
  maybe_corrupt(out.data(), out.size() * sizeof(T));
  return out.size();
}

template <class T>
std::uint64_t Comm::append_span(std::vector<T>& out, int r) const {
  const T* src = static_cast<const T*>(peer_ptr(r));
  out.insert(out.end(), src, src + peer_count(r));
  return peer_count(r);
}

template <class T>
void Comm::bcast(std::vector<T>& data, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  DRCM_CHECK(root >= 0 && root < size_, "bcast root out of range");
  enter_collective(CollOp::kBcast);
  publish(data.data(), data.size(), sizeof(T));
  cross_barrier();
  const std::uint64_t count = peer_count(root);
  if (rank_ != root) {
    data.clear();
    append_span(data, root);
    maybe_corrupt(data.data(), data.size() * sizeof(T));
  }
  charge(model_->bcast(size_, count * words_of<T>()));
}

template <class T, class Combine>
T Comm::allreduce(const T& value, Combine combine) {
  static_assert(std::is_trivially_copyable_v<T>);
  enter_collective(CollOp::kAllreduce);
  publish(&value, 1, sizeof(T));
  cross_barrier();
  T acc = *static_cast<const T*>(peer_ptr(0));
  for (int r = 1; r < size_; ++r) {
    acc = combine(acc, *static_cast<const T*>(peer_ptr(r)));
  }
  maybe_corrupt(&acc, sizeof(T));
  charge(model_->allreduce(size_, words_of<T>()));
  return acc;
}

template <class T>
std::vector<T> Comm::allgather(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  enter_collective(CollOp::kAllgather);
  publish(&value, 1, sizeof(T));
  cross_barrier();
  std::vector<T> out;
  out.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) append_span(out, r);
  maybe_corrupt(out.data(), out.size() * sizeof(T));
  charge(model_->allgatherv(size_, static_cast<std::uint64_t>(size_) * words_of<T>()));
  return out;
}

template <class T>
std::vector<T> Comm::allgatherv(std::span<const T> local) {
  static_assert(std::is_trivially_copyable_v<T>);
  enter_collective(CollOp::kAllgatherv);
  publish(local.data(), local.size(), sizeof(T));
  cross_barrier();
  std::uint64_t total = 0;
  for (int r = 0; r < size_; ++r) total += peer_count(r);
  std::vector<T> out;
  out.reserve(total);
  for (int r = 0; r < size_; ++r) append_span(out, r);
  maybe_corrupt(out.data(), out.size() * sizeof(T));
  charge(model_->allgatherv(size_, total * words_of<T>()));
  return out;
}

template <class T>
std::vector<T> Comm::alltoallv(const std::vector<std::vector<T>>& send,
                               std::vector<std::int64_t>* recv_counts) {
  static_assert(std::is_trivially_copyable_v<T>);
  DRCM_CHECK(static_cast<int>(send.size()) == size_,
             "alltoallv needs one send buffer per destination rank");
  enter_collective(CollOp::kAlltoallv);
  const std::uint64_t send_total = publish_routed(&send);
  cross_barrier();
  std::vector<T> out;
  std::uint64_t recv_total = 0;
  for (int s = 0; s < size_; ++s) recv_total += peer_count_array(s, rank_);
  out.reserve(recv_total);
  receive_routed(out);
  if (recv_counts) recv_counts->assign(src_counts_.begin(), src_counts_.end());
  charge(model_->alltoallv(size_, send_total * words_of<T>(),
                           recv_total * words_of<T>()));
  return out;
}

template <class T>
T Comm::exscan_sum(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  enter_collective(CollOp::kExscan);
  publish(&value, 1, sizeof(T));
  cross_barrier();
  T acc{};
  for (int r = 0; r < rank_; ++r) {
    acc = static_cast<T>(acc + *static_cast<const T*>(peer_ptr(r)));
  }
  maybe_corrupt(&acc, sizeof(T));
  charge(model_->exscan(size_, words_of<T>()));
  return acc;
}

template <class T>
std::vector<T> Comm::gatherv(std::span<const T> local, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  DRCM_CHECK(root >= 0 && root < size_, "gatherv root out of range");
  enter_collective(CollOp::kGatherv);
  publish(local.data(), local.size(), sizeof(T));
  cross_barrier();
  std::vector<T> out;
  std::uint64_t total = 0;
  for (int r = 0; r < size_; ++r) total += peer_count(r);
  if (rank_ == root) {
    out.reserve(total);
    for (int r = 0; r < size_; ++r) append_span(out, r);
    maybe_corrupt(out.data(), out.size() * sizeof(T));
  }
  charge(model_->gatherv(size_, total * words_of<T>()));
  return out;
}

template <class T>
std::vector<T> Comm::scatterv(const std::vector<std::vector<T>>& chunks,
                              int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  DRCM_CHECK(root >= 0 && root < size_, "scatterv root out of range");
  DRCM_CHECK(rank_ != root || static_cast<int>(chunks.size()) == size_,
             "scatterv needs one chunk per rank");
  enter_collective(CollOp::kScatterv);
  // Every rank publishes a full-size (if empty) table: the copy-on-publish
  // board walks all size_ destination slots even for non-roots.
  const std::uint64_t total = publish_routed(rank_ == root ? &chunks : nullptr);
  cross_barrier();
  const std::uint64_t c = peer_count_array(root, rank_);
  const T* src = static_cast<const T*>(peer_ptr_array(root, rank_));
  std::vector<T> out(src, src + c);
  maybe_corrupt(out.data(), out.size() * sizeof(T));
  charge(model_->scatterv(size_, total * words_of<T>()));
  return out;
}

template <class T, class Combine>
T Comm::reduce(const T& value, Combine combine, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  DRCM_CHECK(root >= 0 && root < size_, "reduce root out of range");
  enter_collective(CollOp::kReduce);
  publish(&value, 1, sizeof(T));
  cross_barrier();
  T acc{};
  if (rank_ == root) {
    acc = *static_cast<const T*>(peer_ptr(0));
    for (int r = 1; r < size_; ++r) {
      acc = combine(acc, *static_cast<const T*>(peer_ptr(r)));
    }
    maybe_corrupt(&acc, sizeof(T));
  }
  charge(model_->reduce(size_, words_of<T>()));
  return acc;
}

template <class T>
std::vector<T> Comm::pairwise_exchange(int partner, std::span<const T> send) {
  static_assert(std::is_trivially_copyable_v<T>);
  DRCM_CHECK(partner >= 0 && partner < size_, "pairwise partner out of range");
  enter_collective(CollOp::kPairwise);
  publish(send.data(), send.size(), sizeof(T));
  cross_barrier();
  std::vector<T> out;
  const std::uint64_t count = append_span(out, partner);
  maybe_corrupt(out.data(), out.size() * sizeof(T));
  if (partner != rank_) {
    charge(model_->pairwise(count * words_of<T>()));
  }
  return out;
}

template <class T, class RouteFn, class CountPublishFn>
std::int64_t Comm::fused_head(CollOp op, std::span<const int> gather_peers,
                              std::span<const T> local,
                              std::vector<T>& gather_buf,
                              std::vector<std::vector<T>>& route_buf,
                              std::vector<T>& recv_buf, RouteFn&& route,
                              CountPublishFn&& count_publish) {
  static_assert(std::is_trivially_copyable_v<T>);

  // Superstep 1: publish my span, read my gather group.
  enter_collective(op);
  publish(local.data(), local.size(), sizeof(T));
  cross_barrier();
  gather_buf.clear();
  for (const int r : gather_peers) {
    DRCM_CHECK(r >= 0 && r < size_, "gather peer out of range");
    append_span(gather_buf, r);
  }
  const std::uint64_t gathered_words = gather_buf.size() * words_of<T>();

  // Superstep 2: route locally, publish per-destination buffers, receive
  // what every rank routed to me.
  route(static_cast<const std::vector<T>&>(gather_buf), route_buf);
  DRCM_CHECK(static_cast<int>(route_buf.size()) == size_,
             "route must produce one buffer per destination rank");
  int fan_out = 0;
  for (int d = 0; d < size_; ++d) {
    fan_out += !route_buf[static_cast<std::size_t>(d)].empty() && d != rank_;
  }
  const std::uint64_t send_words = publish_routed(&route_buf) * words_of<T>();
  cross_barrier();
  const std::uint64_t recv_words = receive_routed(recv_buf) * words_of<T>();

  // Superstep 3: publish my count (count_publish may add a span), fold
  // everyone's after the crossing.
  publish_word(count_publish(static_cast<const std::vector<T>&>(recv_buf)));
  cross_barrier();
  std::int64_t total = 0;
  for (int r = 0; r < size_; ++r) total += peer_word(r);

  CommCost cost =
      model_->allgatherv(static_cast<int>(gather_peers.size()), gathered_words);
  cost += model_->alltoallv(fan_out + 1, send_words, recv_words);
  cost += model_->allreduce(size_, 1);
  charge(cost);
  return total;
}

template <class T, class RouteFn, class CountFn>
std::int64_t Comm::fused_gather_route_count(
    std::span<const int> gather_peers, std::span<const T> local,
    std::vector<T>& gather_buf, std::vector<std::vector<T>>& route_buf,
    std::vector<T>& recv_buf, RouteFn&& route, CountFn&& count) {
  return fused_head(CollOp::kFusedGatherRouteCount, gather_peers, local,
                    gather_buf, route_buf, recv_buf,
                    std::forward<RouteFn>(route),
                    [&](const std::vector<T>& received) -> std::int64_t {
                      return count(received);
                    });
}

template <class T, class U, class H, class RouteFn, class CountCarryFn,
          class SortRouteFn, class RankRouteFn, class FinishFn>
std::int64_t Comm::fused_order_level(
    std::span<const int> gather_peers, std::span<const T> local,
    std::vector<T>& gather_buf, std::vector<std::vector<T>>& route_buf,
    std::vector<T>& recv_buf, std::vector<H>& carry_buf,
    std::vector<H>& carry_all, std::vector<std::vector<U>>& sort_route_buf,
    std::vector<U>& sort_recv_buf, std::vector<std::vector<T>>& rank_route_buf,
    std::vector<T>& rank_recv_buf, RouteFn&& route, CountCarryFn&& count_carry,
    SortRouteFn&& sort_route, RankRouteFn&& rank_route, FinishFn&& finish) {
  static_assert(std::is_trivially_copyable_v<U>);
  static_assert(std::is_trivially_copyable_v<H>);

  // Supersteps 1-3: the shared head, with the carry payload riding the
  // count superstep's span.
  const std::int64_t total = fused_head(
      CollOp::kFusedOrderLevel, gather_peers, local, gather_buf, route_buf,
      recv_buf, std::forward<RouteFn>(route),
      [&](const std::vector<T>& received) -> std::int64_t {
        carry_buf.clear();
        const std::int64_t n = count_carry(received, carry_buf);
        publish(carry_buf.data(), carry_buf.size(), sizeof(H));
        return n;
      });
  if (total == 0) return 0;  // identical on every rank: uniform early exit

  // Superstep 4: read the carry allgather, deal the U elements.
  carry_all.clear();
  std::uint64_t carry_words = 0;
  for (int r = 0; r < size_; ++r) {
    carry_words += append_span(carry_all, r) * words_of<H>();
  }
  sort_route(total, static_cast<const std::vector<H>&>(carry_all),
             sort_route_buf);
  charge(model_->allgatherv(size_, carry_words));
  DRCM_CHECK(static_cast<int>(sort_route_buf.size()) == size_,
             "sort_route must produce one buffer per destination rank");
  const std::uint64_t sort_send_words =
      publish_routed(&sort_route_buf) * words_of<U>();
  cross_barrier();
  const std::uint64_t sort_recv_words =
      receive_routed(sort_recv_buf) * words_of<U>();
  // Priced as the paper's all-process AlltoAll (T_SortPerm's alpha*p term),
  // matching the standalone sortperm_bucket exchange it replaces.
  charge(model_->alltoallv(size_, sort_send_words, sort_recv_words));

  // Superstep 5: scatter the computed positions home.
  rank_route(static_cast<const std::vector<U>&>(sort_recv_buf),
             std::span<const std::uint64_t>(src_counts_), rank_route_buf);
  DRCM_CHECK(static_cast<int>(rank_route_buf.size()) == size_,
             "rank_route must produce one buffer per destination rank");
  const std::uint64_t rank_send_words =
      publish_routed(&rank_route_buf) * words_of<T>();
  cross_barrier();
  const std::uint64_t rank_recv_words =
      receive_routed(rank_recv_buf) * words_of<T>();
  charge(model_->alltoallv(size_, rank_send_words, rank_recv_words));
  finish(static_cast<const std::vector<T>&>(rank_recv_buf));
  return total;
}

}  // namespace drcm::mps
