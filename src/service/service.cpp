#include "service/service.hpp"

#include <algorithm>
#include <exception>
#include <unordered_set>
#include <utility>

#include "common/check.hpp"
#include "sparse/permute.hpp"

namespace drcm::service {

namespace {

/// How a batch wave is carved onto the rank fleet: `nlanes` disjoint
/// square sub-grids of `lane_size` ranks each, world ranks
/// [lane * lane_size, (lane + 1) * lane_size); ranks past
/// nlanes * lane_size sit the wave out (at most lane_size - 1 of them,
/// only when the fleet size is not itself square).
struct LanePlan {
  int lane_size = 1;
  int nlanes = 1;

  int color_of(int world_rank) const {
    const int lane = world_rank / lane_size;
    return lane < nlanes ? lane : nlanes;  // color nlanes = idle
  }
};

/// Carves lanes for `requests` concurrent requests on `ranks` ranks:
/// as many lanes as there are requests, each the LARGEST square grid
/// fitting the per-lane share — a single request always gets the full
/// largest-square lane, so the steady-state geometry (and with it the
/// warmed workspace capacities) is stable.
LanePlan plan_lanes(int ranks, std::size_t requests) {
  const auto desired = static_cast<int>(std::clamp<std::size_t>(
      requests, 1, static_cast<std::size_t>(ranks)));
  LanePlan plan;
  plan.lane_size = dist::largest_square_grid(std::max(ranks / desired, 1));
  plan.nlanes = std::min(desired, ranks / plan.lane_size);
  return plan;
}

enum class Mode { kCold, kHit, kRepair };

/// Driver-side state of one request across its batch: inputs prepared
/// before any rank launches, the current wave's verdict, and the
/// checkpoint its lane deposits. Deposits are read only after
/// Runtime::run has joined every thread (it joins on faults too, so the
/// deposits of completed requests survive an aborted launch).
struct RequestState {
  /// Stripped ONCE outside the ranks (simulated ranks share an address
  /// space; run_ordered_solve does the same).
  sparse::CsrMatrix adjacency;
  /// The serial twin of the lane's collective fingerprint
  /// (partition-invariant, so one rank owning everything is just another
  /// cut): scheduling classifies on it before any rank launches, and the
  /// lane DRCM_CHECKs agreement.
  RefinedFingerprint refined{};
  PatternFingerprint salted{};
  /// kAuto resolved driver-side on the stripped adjacency (the input
  /// dist_order would resolve on), so the cache key, the lane run and the
  /// response agree on the algorithm, and an auto request shares the slot
  /// of an explicit request for its resolution.
  rcm::DistRcmOptions resolved{};
  bool auto_selected = false;
  rcm::OrderingProxies proxies{};
  /// Sat out a wave behind an identical in-flight fingerprint.
  bool deferred = false;
  /// A fault killed this request mid-repair: the relaunch runs it COLD —
  /// the opportunistic path lost its chance, the request did not.
  bool no_repair = false;

  Mode mode = Mode::kCold;
  rcm::RepairPlan repair;
  RepairCandidate source;

  bool done = false;
  std::vector<std::vector<double>> slabs;  ///< one per lane rank
  std::vector<index_t> labels;             ///< misses only
  rcm::OrderingRecipe recipe;              ///< misses only
};

}  // namespace

struct ReorderingService::Batch {
  std::span<const OrderSolveRequest> requests;
  std::vector<RequestState> state;
  std::vector<OrderSolveResponse> responses;
  /// Requests still to run, in scheduling order.
  std::vector<std::size_t> remaining;
  int relaunches = 0;
  std::string last_error = "unknown failure";

  explicit Batch(std::span<const OrderSolveRequest> rqs)
      : requests(rqs), state(rqs.size()), responses(rqs.size()) {
    for (std::size_t i = 0; i < rqs.size(); ++i) {
      const auto& rq = rqs[i];
      DRCM_CHECK(rq.matrix != nullptr, "request needs a matrix");
      DRCM_CHECK(rq.b.size() == static_cast<std::size_t>(rq.matrix->n()),
                 "request rhs size mismatch");
      auto& st = state[i];
      st.adjacency = rq.matrix->strip_diagonal();
      st.refined = fingerprint_pattern_serial(*rq.matrix);
      st.resolved = rq.rcm;
      if (st.resolved.ordering.algorithm == rcm::OrderingAlgorithm::kAuto) {
        const auto choice = rcm::select_ordering(st.adjacency);
        st.resolved.ordering.algorithm = choice.algorithm;
        st.auto_selected = true;
        st.proxies = choice.proxies;
      }
      st.salted = salt_ordering_options(st.refined.fp, st.resolved);
      remaining.push_back(i);
    }
  }
};

struct ReorderingService::Wave {
  std::vector<std::size_t> scheduled;
  /// Coalesced twins of a scheduled miss: they wait for the next wave.
  std::vector<std::size_t> deferred;
  LanePlan lanes;
  std::vector<std::vector<std::size_t>> lane_queue;
  /// The request each world rank is inside, for fault attribution.
  std::vector<int> current_request;
};

ReorderingService::ReorderingService(const ServiceOptions& options)
    : options_(options),
      workspaces_(static_cast<std::size_t>(std::max(options.ranks, 1))),
      cache_(options.cache_capacity) {
  DRCM_CHECK(options_.ranks >= 1, "service needs at least one rank");
  DRCM_CHECK(options_.threads_per_rank >= 1,
             "service needs at least one thread per rank");
  cumulative_.machine = options_.machine;
}

OrderSolveResponse ReorderingService::submit(const OrderSolveRequest& request) {
  auto responses = submit_batch(std::span<const OrderSolveRequest>(&request, 1));
  return std::move(responses.front());
}

std::vector<OrderSolveResponse> ReorderingService::submit_batch(
    std::span<const OrderSolveRequest> requests) {
  Batch batch(requests);
  // Entries a request of THIS batch was served from (hits and repair
  // sources) stay pinned while it is in flight.
  cache_.unpin_all();
  while (!batch.remaining.empty()) {
    Wave wave = plan_wave(batch);
    const bool clean = run_wave(batch, wave);
    commit_wave(batch, wave, clean);
  }
  return std::move(batch.responses);
}

ReorderingService::Wave ReorderingService::plan_wave(Batch& batch) const {
  Wave wave;
  // Coalescing: exact hits all run (they share the entry read-only). Of
  // the misses, only the FIRST occurrence of each salted fingerprint runs
  // this wave; twins wait a wave and are served from the insert.
  std::unordered_set<PatternFingerprint, PatternFingerprintHash> inflight;
  for (const std::size_t req : batch.remaining) {
    auto& st = batch.state[req];
    st.mode = Mode::kCold;
    if (cache_.find(st.salted) != nullptr) {
      st.mode = Mode::kHit;
    } else if (!inflight.insert(st.salted).second) {
      wave.deferred.push_back(req);
      st.deferred = true;
      continue;
    } else if (!st.no_repair && repair_capable(st.resolved)) {
      // Near-miss: repair from the closest cached entry when
      // rcm::plan_repair prices that strictly under a cold recompute.
      auto source = cache_.repair_candidate(st.refined, st.resolved.ordering);
      if (source) {
        rcm::RepairPlan plan =
            rcm::plan_repair(source->entry->recipe, source->entry->labels,
                             source->changed_rows, st.refined.fp.n);
        if (plan.profitable) {
          st.mode = Mode::kRepair;
          st.repair = std::move(plan);
          st.source = std::move(*source);
        }
      }
    }
    wave.scheduled.push_back(req);
  }

  wave.lanes = plan_lanes(options_.ranks, wave.scheduled.size());
  const auto nlanes = static_cast<std::size_t>(wave.lanes.nlanes);
  wave.lane_queue.resize(nlanes);
  for (std::size_t i = 0; i < wave.scheduled.size(); ++i) {
    wave.lane_queue[i % nlanes].push_back(wave.scheduled[i]);
  }
  wave.current_request.assign(static_cast<std::size_t>(options_.ranks), -1);

  // Fresh per-attempt deposit slots (an aborted attempt's partial
  // deposits for unfinished requests must not leak into this one).
  const auto lane_size = static_cast<std::size_t>(wave.lanes.lane_size);
  for (const std::size_t req : wave.scheduled) {
    auto& st = batch.state[req];
    auto& resp = batch.responses[req];
    resp = OrderSolveResponse{};
    resp.report.ranks.resize(lane_size);
    resp.algorithm = st.resolved.ordering.algorithm;
    resp.auto_selected = st.auto_selected;
    resp.proxies = st.proxies;
    st.slabs.assign(lane_size, {});
    st.labels.clear();
    st.recipe = rcm::OrderingRecipe{};
  }
  return wave;
}

bool ReorderingService::run_wave(Batch& batch, Wave& wave) {
  const auto body = [&](mps::Comm& world) {
    const int wr = world.rank();
    const int color = wave.lanes.color_of(wr);
    mps::Comm lane = world.split(color, wr);
    if (color == wave.lanes.nlanes) return;  // idle this wave

    // The lane grid adopts this WORLD rank's persistent workspace, so
    // buffer capacities warmed by earlier requests (and earlier waves)
    // carry over and the realloc ledger spans the whole stream.
    dist::ProcGrid2D grid(lane, &workspaces_[static_cast<std::size_t>(wr)]);
    auto& current = wave.current_request[static_cast<std::size_t>(wr)];
    for (const std::size_t req :
         wave.lane_queue[static_cast<std::size_t>(color)]) {
      current = static_cast<int>(req);
      run_request(batch, wave, req, lane, grid, wr);
      current = -1;
    }
  };

  // An attributable fault: the dying rank's in-flight request gets a
  // structured kFault response — unless it died mid-REPAIR, in which case
  // it survives and relaunches cold (the cache is untouched either way;
  // inserts only follow validated deposits). Everyone else is relaunched
  // from the driver's checkpoints (one-shot actions cannot re-fire).
  const auto attribute = [&](int rank, mps::FaultKind kind,
                             std::uint64_t ordinal) {
    batch.last_error = std::string("injected ") + mps::fault_kind_name(kind) +
                       " on rank " + std::to_string(rank) +
                       " at collective " + std::to_string(ordinal);
    const int victim = wave.current_request[static_cast<std::size_t>(rank)];
    if (victim < 0 || batch.state[static_cast<std::size_t>(victim)].done) {
      return;
    }
    const auto req = static_cast<std::size_t>(victim);
    if (batch.state[req].mode == Mode::kRepair) {
      batch.state[req].no_repair = true;
    } else {
      batch.responses[req].status = RequestStatus::kFault;
      batch.responses[req].error = batch.last_error;
      std::erase(wave.scheduled, req);
    }
  };

  mps::SpmdReport partial;
  mps::RunOptions run_options;
  run_options.machine = options_.machine;
  run_options.threads_per_rank = options_.threads_per_rank;
  run_options.faults = options_.faults;
  run_options.watchdog_seconds = options_.watchdog_seconds;
  run_options.report_on_error = &partial;

  ++launches_;
  try {
    cumulative_.merge_from(
        mps::Runtime::run(options_.ranks, body, run_options));
    return true;
  } catch (const mps::InjectedFault& f) {
    attribute(f.rank(), f.kind(), f.ordinal());
  } catch (const mps::InjectedAllocFailure& f) {
    attribute(f.rank(), mps::FaultKind::kAllocFailure, f.ordinal());
  } catch (const std::exception& e) {
    // No rank attribution (corruption faults surface as downstream check
    // failures; watchdog timeouts name no single request): retry every
    // unfinished request — one-shot fault semantics still guarantee the
    // relaunch makes progress.
    batch.last_error = e.what();
  }
  cumulative_.merge_from(partial);
  ++batch.relaunches;
  return false;
}

void ReorderingService::run_request(Batch& batch, const Wave& wave,
                                    std::size_t req, mps::Comm& lane,
                                    dist::ProcGrid2D& grid,
                                    int world_rank) const {
  const auto& rq = batch.requests[req];
  auto& st = batch.state[req];
  // The RESOLVED options (kAuto already concrete) are what the lane
  // executes — so the salt, the entry and the run can never diverge.
  const auto& ropt = st.resolved;
  const auto& workspace = workspaces_[static_cast<std::size_t>(world_rank)];

  // Per-request ledger isolation: park the attempt's running totals, run
  // the request on a zeroed recorder (peak_resident included, so the
  // pipeline's per-rank budget asserts per request), then fold the
  // request's segment back into the running totals.
  const auto saved = lane.stats();
  lane.stats().reset();
  const auto realloc0 = workspace.reallocations();

  // The lane's collective fingerprint (charged to kOther) must reproduce
  // the driver's serial classification value bit for bit — partition
  // invariance is the property the whole schedule rests on.
  const RefinedFingerprint rf =
      fingerprint_pattern_refined(lane, *rq.matrix, grid);
  const PatternFingerprint fp = salt_ordering_options(rf.fp, ropt);
  DRCM_CHECK(fp == st.salted && rf.windows == st.refined.windows,
             "lane fingerprint must match the driver's serial twin");

  // One pipeline call per request; the hit and repair branches add the
  // known labels (which make the core skip the ordering and ignore the
  // adjacency and recipe sink). Recipe capture (rank 0 only — the vector
  // is driver-side) is what makes a cold entry repair-eligible.
  rcm::OrderedSolveSpec spec;
  spec.matrix = rq.matrix;
  spec.b = rq.b;
  spec.precondition = rq.precondition;
  spec.rcm = ropt;
  spec.cg = rq.cg;
  spec.adjacency = &st.adjacency;
  spec.recipe =
      lane.rank() == 0 && repair_capable(ropt) ? &st.recipe : nullptr;

  rcm::RepairResult rep;
  if (st.mode == Mode::kHit) {
    const CacheEntry* entry = cache_.find(fp);
    DRCM_CHECK(entry != nullptr, "scheduled hit lost its entry");
    spec.labels = &entry->labels;
  } else if (st.mode == Mode::kRepair) {
    const CacheEntry& src = *st.source.entry;
    rep = rcm::dist_rcm_repair(grid, st.adjacency, src.labels, src.recipe,
                               st.repair, ropt);
    // A structural change detected mid-repair (component split / merge /
    // reorder) falls back to an honest cold run, recipe captured so the
    // fresh entry is itself repair-eligible.
    if (rep.ok) spec.labels = &rep.labels;
    if (rep.ok && options_.verify_repair) {
      // Stats-isolated cross-check: the cold ordering must agree bit for
      // bit, but its collectives must not pollute this request's ledger
      // (or the crossing comparison the repair exists to win).
      const auto parked = lane.stats();
      lane.stats().reset();
      const auto cold = rcm::dist_rcm(lane, st.adjacency, ropt);
      lane.stats() = parked;
      DRCM_CHECK(cold == rep.labels,
                 "repair must be bit-identical to a cold recompute");
    }
  }
  const bool repaired = st.mode == Mode::kRepair && rep.ok;
  rcm::OrderedSolveResult result = rcm::ordered_solve_spec(grid, spec);
  DRCM_CHECK(
      st.mode != Mode::kHit || mps::ordering_crossings(lane.stats()) == 0,
      "cache hit must skip every ordering collective");

  // One closing allreduce, combined componentwise: (max ordering
  // crossings, summed workspace reallocations).
  struct Closing {
    std::uint64_t max_crossings;
    std::uint64_t sum_reallocs;
  };
  const Closing closing = lane.allreduce(
      Closing{mps::ordering_crossings(lane.stats()),
              workspace.reallocations() - realloc0},
      [](const Closing& x, const Closing& y) {
        return Closing{std::max(x.max_crossings, y.max_crossings),
                       x.sum_reallocs + y.sum_reallocs};
      });

  const auto mine = lane.stats();
  lane.stats() = saved;
  lane.stats().merge_from(mine);

  // Deposit this rank's share. Lane rank 0 flips `done` LAST: the flip
  // happens after the closing allreduce above, which every lane rank must
  // have entered, and each rank's deposits precede its next collective — so
  // done == true guarantees complete deposits by the time the runtime has
  // joined the threads.
  auto& resp = batch.responses[req];
  st.slabs[static_cast<std::size_t>(lane.rank())] = std::move(result.x_local);
  resp.report.ranks[static_cast<std::size_t>(lane.rank())] = mine;
  if (lane.rank() != 0) return;
  resp.cache_hit = st.mode == Mode::kHit;
  // A repair only counts as a HIT when it actually skipped work; one that
  // degraded to a full recompute is honest about it.
  resp.repair_hit =
      repaired && (rep.reused >= 1 || rep.level_steps_skipped >= 1);
  resp.level_steps_skipped = repaired ? rep.level_steps_skipped : 0;
  resp.changed_windows =
      st.mode == Mode::kRepair ? st.source.changed_windows : 0;
  resp.fingerprint = fp;
  resp.permuted_bandwidth = result.permuted_bandwidth;
  resp.cg = result.cg;
  resp.ordering_crossings = closing.max_crossings;
  resp.workspace_reallocations = closing.sum_reallocs;
  resp.lane = wave.lanes.color_of(world_rank);
  resp.lane_ranks = wave.lanes.lane_size;
  if (repaired) {
    st.labels = std::move(rep.labels);
    st.recipe = std::move(rep.recipe);
  } else if (st.mode != Mode::kHit) {
    st.labels = std::move(result.labels);
  }
  st.done = true;
}

void ReorderingService::commit_wave(Batch& batch, Wave& wave, bool clean) {
  // New orderings are inserted after the loop: after the launch joined
  // (lanes never see the cache move) and before the next wave schedules,
  // so a deferred twin's next classification finds its sibling's entry
  // and HITS.
  std::vector<std::pair<PatternFingerprint, CacheEntry>> to_insert;
  std::vector<std::size_t> unfinished;
  for (const std::size_t req : wave.scheduled) {
    auto& st = batch.state[req];
    auto& resp = batch.responses[req];
    if (!st.done) {
      unfinished.push_back(req);
      continue;
    }
    resp.coalesced = st.deferred;
    const std::vector<index_t>* labels = &st.labels;
    if (resp.cache_hit) {
      ++cache_hits_;
      if (resp.coalesced) ++coalesced_served_;
      const CacheEntry* entry = cache_.serve(resp.fingerprint);
      DRCM_CHECK(entry != nullptr, "hit entry vanished mid-batch");
      labels = &entry->labels;
    } else {
      ++cache_misses_;
      // Labels must be a permutation of [0, n) before they may touch the
      // cache or index the solution assembly — a faulted or corrupted
      // ordering surfaces as a structured error, never as a poisoned
      // cache entry.
      if (st.labels.size() != static_cast<std::size_t>(st.refined.fp.n) ||
          !sparse::is_valid_permutation(st.labels)) {
        resp.status = RequestStatus::kFault;
        resp.error = "ordering produced an invalid permutation";
        continue;
      }
      if (resp.repair_hit) {
        ++repair_hits_;
        cache_.serve(st.source.fp);
      }
    }
    resp.x = rcm::assemble_solution(st.slabs, *labels);
    resp.status = RequestStatus::kOk;
    resp.report.machine = options_.machine;
    if (!resp.cache_hit) {
      CacheEntry entry;
      entry.labels = std::move(st.labels);
      entry.rf = st.refined;
      entry.spec = st.resolved.ordering;
      entry.recipe = std::move(st.recipe);
      for (const auto& rank_stats : resp.report.ranks) {
        entry.cost_wall =
            std::max(entry.cost_wall, mps::ordering_wall(rank_stats));
      }
      to_insert.emplace_back(st.salted, std::move(entry));
    }
  }
  DRCM_CHECK(!clean || unfinished.empty(),
             "fault-free launch must complete every scheduled request");
  for (auto& [fp, entry] : to_insert) cache_.insert(fp, std::move(entry));

  batch.remaining = std::move(unfinished);
  batch.remaining.insert(batch.remaining.end(), wave.deferred.begin(),
                         wave.deferred.end());
  if (!clean && batch.relaunches > kMaxRelaunches) {
    for (const std::size_t req : batch.remaining) {
      batch.responses[req].status = RequestStatus::kFault;
      batch.responses[req].error =
          "relaunch budget exhausted: " + batch.last_error;
    }
    batch.remaining.clear();
  }
}

std::uint64_t ReorderingService::workspace_reallocations() const {
  std::uint64_t total = 0;
  for (const auto& ws : workspaces_) total += ws.reallocations();
  return total;
}

}  // namespace drcm::service
