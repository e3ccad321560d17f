// Ordering-as-a-service tour: push a mixed hot/cold request stream through
// a ReorderingService and watch the three amortizations pay off.
//
//   * COLD requests (first sighting of a sparsity pattern) pay the full
//     pipeline: fingerprint -> BFS + SORTPERM ordering -> value-carrying
//     one-shot redistribution -> distributed CG.
//   * WARM requests (repeat patterns) hit the ordering cache: the service
//     jumps straight to the redistribution with the cached labels, and the
//     per-request ledger proves the ordering phases were never entered
//     (ZERO ordering-phase barrier crossings — gated below).
//   * The persistent per-rank workspaces settle after the warm-up: the
//     tail of the stream performs ZERO reallocations (gated below).
//
// A second, DELTA phase streams near-miss patterns at a fresh service:
// a two-component fixture whose small component is window-aligned takes
// small pattern deltas (edge adds/removes), and every delta lands as a
// REPAIR HIT — the cached ordering's untouched component is reused, only
// the dirtied one is re-leveled, and the spliced labels are bit-identical
// to a cold recompute. The repair is priced strictly between a pure hit
// and a cold run, in ordering crossings AND wall time.
//
// Gates (nonzero exit on violation): every cache hit shows 0 ordering
// crossings; the warm mean wall time beats the cold mean; the stream tail
// is reallocation-free; hit solutions are bit-identical to their cold
// reference; every delta repairs with 0 < crossings < cold; the repair
// mean wall sits strictly between the hit mean and the cold mean.
// `--json FILE` emits the hot/cold stream numbers (BENCH_3.json);
// `--delta-json FILE` emits the cold/hit/repair comparison (BENCH_4.json).
//
//   $ ./examples/ordering_service [--json BENCH_3.json] \
//                                 [--delta-json BENCH_4.json]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/timer.hpp"
#include "service/service.hpp"
#include "sparse/generators.hpp"
#include "sparse/pattern_delta.hpp"

int main(int argc, char** argv) {
  using namespace drcm;
  namespace gen = sparse::gen;

  const char* json_path = nullptr;
  const char* delta_json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--delta-json") == 0 && i + 1 < argc) {
      delta_json_path = argv[++i];
    } else {
      std::printf("usage: %s [--json FILE] [--delta-json FILE]\n", argv[0]);
      return 1;
    }
  }

  // Three distinct high-diameter shells arriving scattered — the repeat
  // customers of the service. Same family, different patterns: each gets
  // its own fingerprint and its own cache entry.
  std::vector<sparse::CsrMatrix> patterns;
  std::vector<std::vector<double>> rhs;
  for (int i = 0; i < 3; ++i) {
    patterns.push_back(gen::with_laplacian_values(
        gen::relabel_random(gen::grid3d(5, 5, 60 + 10 * i, gen::Stencil3d::k27),
                            21 + i),
        0.02));
    const auto n = patterns.back().n();
    std::vector<double> b(static_cast<std::size_t>(n));
    for (index_t v = 0; v < n; ++v) {
      b[static_cast<std::size_t>(v)] =
          1.0 + 0.5 * static_cast<double>((v * 2654435761u) % 1000) / 1000.0;
    }
    rhs.push_back(std::move(b));
  }

  service::ServiceOptions options;
  options.ranks = 4;  // one 2x2 lane per submission
  service::ReorderingService svc(options);

  std::printf("ordering service: %d ranks, %zu patterns in rotation\n\n",
              options.ranks, patterns.size());
  std::printf("%4s %8s %6s %5s %10s %14s %9s\n", "req", "pattern", "n",
              "hit", "wall (s)", "ordering chg", "reallocs");

  struct Point {
    int index, pattern;
    bool hit;
    double wall;
    unsigned long long crossings, reallocs;
  };
  std::vector<Point> points;
  std::vector<service::OrderSolveResponse> cold(patterns.size());
  std::vector<unsigned long long> cold_crossings(patterns.size(), 0);

  // The stream: 12 requests cycling the three patterns. Requests 0-2 are
  // cold (first sighting); 3-11 are warm repeats of the same (pattern,
  // rhs) pairs and must hit.
  const int total = 12;
  double cold_wall = 0.0, warm_wall = 0.0;
  int cold_count = 0, warm_count = 0;
  unsigned long long crossings_saved = 0, tail_reallocs = 0;
  for (int k = 0; k < total; ++k) {
    const auto p = static_cast<std::size_t>(k) % patterns.size();
    service::OrderSolveRequest request;
    request.matrix = &patterns[p];
    request.b = rhs[p];
    WallTimer t;
    auto resp = svc.submit(request);
    const double wall = t.seconds();
    if (resp.status != service::RequestStatus::kOk) {
      std::printf("ERROR: request %d failed: %s\n", k, resp.error.c_str());
      return 1;
    }
    std::printf("%4d %8zu %6lld %5s %10.3f %14llu %9llu\n", k, p,
                static_cast<long long>(patterns[p].n()),
                resp.cache_hit ? "HIT" : "miss", wall,
                static_cast<unsigned long long>(resp.ordering_crossings),
                static_cast<unsigned long long>(resp.workspace_reallocations));
    points.push_back({k, static_cast<int>(p), resp.cache_hit, wall,
                      resp.ordering_crossings, resp.workspace_reallocations});
    if (k < static_cast<int>(patterns.size())) {
      if (resp.cache_hit) {
        std::printf("ERROR: request %d hit on a first sighting!\n", k);
        return 1;
      }
      cold_wall += wall;
      ++cold_count;
      cold_crossings[p] = resp.ordering_crossings;
      cold[p] = std::move(resp);
      continue;
    }
    // Warm phase: must hit, must never enter an ordering phase, and must
    // reproduce the cold solution bit for bit (same lane geometry, same
    // reduction order).
    if (!resp.cache_hit) {
      std::printf("ERROR: request %d missed on a repeat pattern!\n", k);
      return 1;
    }
    if (resp.ordering_crossings != 0) {
      std::printf("ERROR: cache hit %d crossed %llu ordering barriers!\n", k,
                  static_cast<unsigned long long>(resp.ordering_crossings));
      return 1;
    }
    if (resp.x.size() != cold[p].x.size() ||
        std::memcmp(resp.x.data(), cold[p].x.data(),
                    resp.x.size() * sizeof(double)) != 0) {
      std::printf("ERROR: hit %d diverged from its cold reference!\n", k);
      return 1;
    }
    warm_wall += wall;
    ++warm_count;
    crossings_saved += cold_crossings[p];
    // Tail of the stream: every shape has been seen twice, so the realloc
    // ledger (growths surface at the NEXT checkout) must have settled.
    if (k >= 2 * static_cast<int>(patterns.size())) {
      tail_reallocs += resp.workspace_reallocations;
    }
  }

  const double cold_mean = cold_wall / cold_count;
  const double warm_mean = warm_wall / warm_count;
  const double hit_rate =
      static_cast<double>(svc.cache_hits()) /
      static_cast<double>(svc.cache_hits() + svc.cache_misses());
  std::printf("\ncold mean %.3f s  ->  warm mean %.3f s  (%.1fx), "
              "hit rate %.0f%%, %llu ordering crossings saved\n",
              cold_mean, warm_mean, cold_mean / warm_mean, 100.0 * hit_rate,
              crossings_saved);

  if (warm_mean >= cold_mean) {
    std::printf("ERROR: warm requests are not faster than cold ones!\n");
    return 1;
  }
  if (tail_reallocs != 0) {
    std::printf("ERROR: the stream tail performed %llu reallocations!\n",
                tail_reallocs);
    return 1;
  }
  std::printf("gates hold: hits skip every ordering collective, the warm "
              "path is faster, and the steady state allocates nothing.\n");

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::printf("ERROR: cannot open %s for writing\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"ordering_service\",\n");
    std::fprintf(f, "  \"service\": {\"ranks\": %d, \"cache_capacity\": %zu},\n",
                 options.ranks, options.cache_capacity);
    std::fprintf(f, "  \"patterns\": [\n");
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      std::fprintf(f, "    {\"n\": %lld, \"nnz\": %lld}%s\n",
                   static_cast<long long>(patterns[i].n()),
                   static_cast<long long>(patterns[i].nnz()),
                   i + 1 < patterns.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"requests\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& pt = points[i];
      std::fprintf(f,
                   "    {\"index\": %d, \"pattern\": %d, \"cache_hit\": %s, "
                   "\"wall_s\": %.6f, \"ordering_crossings\": %llu, "
                   "\"workspace_reallocations\": %llu}%s\n",
                   pt.index, pt.pattern, pt.hit ? "true" : "false", pt.wall,
                   pt.crossings, pt.reallocs,
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"summary\": {\n");
    std::fprintf(f, "    \"cold_requests\": %d,\n    \"warm_requests\": %d,\n",
                 cold_count, warm_count);
    std::fprintf(f, "    \"cold_mean_wall_s\": %.6f,\n", cold_mean);
    std::fprintf(f, "    \"warm_mean_wall_s\": %.6f,\n", warm_mean);
    std::fprintf(f, "    \"warm_speedup\": %.3f,\n", cold_mean / warm_mean);
    std::fprintf(f, "    \"hit_rate\": %.4f,\n", hit_rate);
    std::fprintf(f, "    \"ordering_crossings_saved\": %llu,\n",
                 crossings_saved);
    std::fprintf(f, "    \"tail_reallocations\": %llu\n  }\n}\n",
                 tail_reallocs);
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }

  // ---- Delta stream: cold vs hit vs repair-hit -----------------------
  // Two components, window-aligned on purpose: n = 1280 puts the row-
  // window width at exactly 80, so the big component (1200 rows) fills
  // windows 0..14 and the small one (80 rows) fills window 15 — a delta
  // confined to the small component can never dirty a window overlapping
  // the big one, and the repair planner always reuses the big component.
  const auto big = gen::grid2d(30, 40);
  const auto small = gen::grid2d(8, 10);
  const auto adjacency = gen::disjoint_union({big, small});
  const index_t small_lo = big.n();
  const auto base = gen::with_laplacian_values(adjacency, 0.02);
  std::vector<double> db(static_cast<std::size_t>(base.n()));
  for (index_t v = 0; v < base.n(); ++v) {
    db[static_cast<std::size_t>(v)] =
        1.0 + 0.5 * static_cast<double>((v * 2654435761u) % 1000) / 1000.0;
  }

  service::ServiceOptions delta_options;
  delta_options.ranks = 4;
  service::ReorderingService delta_svc(delta_options);

  std::printf("\ndelta stream: %lld-row two-component fixture, small "
              "component takes the edits\n",
              static_cast<long long>(base.n()));
  std::printf("%-10s %10s %14s %8s %6s\n", "kind", "wall (s)",
              "ordering chg", "windows", "skips");

  struct DeltaPoint {
    const char* kind;
    double wall;
    unsigned long long crossings;
    int changed_windows;
    long long level_steps_skipped;
  };
  std::vector<DeltaPoint> delta_points;
  auto timed_submit = [&](const sparse::CsrMatrix& m, const char* kind)
      -> service::OrderSolveResponse {
    service::OrderSolveRequest rq;
    rq.matrix = &m;
    rq.b = db;
    WallTimer t;
    auto resp = delta_svc.submit(rq);
    const double wall = t.seconds();
    if (resp.status != service::RequestStatus::kOk) {
      std::printf("ERROR: delta-stream %s request failed: %s\n", kind,
                  resp.error.c_str());
      std::exit(1);
    }
    std::printf("%-10s %10.3f %14llu %8d %6lld\n", kind, wall,
                static_cast<unsigned long long>(resp.ordering_crossings),
                resp.changed_windows,
                static_cast<long long>(resp.level_steps_skipped));
    delta_points.push_back(
        {kind, wall, static_cast<unsigned long long>(resp.ordering_crossings),
         resp.changed_windows,
         static_cast<long long>(resp.level_steps_skipped)});
    return resp;
  };

  // Cold sighting, then a pure hit on the identical pattern.
  const auto delta_cold = timed_submit(base, "cold");
  const auto delta_hit = timed_submit(base, "hit");
  if (!delta_hit.cache_hit || delta_hit.ordering_crossings != 0) {
    std::printf("ERROR: repeat of the base pattern did not purely hit!\n");
    return 1;
  }
  const auto cold_ordering = delta_cold.ordering_crossings;

  // Three near-miss edits, all confined to the small component: every one
  // must land as a repair hit priced strictly under the cold ordering.
  struct Edit {
    const char* name;
    index_t adds, removes;
    u64 seed;
  };
  const Edit edits[] = {{"repair", 1, 0, 101},   // one edge added
                        {"repair", 0, 1, 202},   // one edge removed
                        {"repair", 2, 1, 303}};  // mixed edit
  double repair_wall_sum = 0.0;
  std::vector<double> hit_walls{delta_points[1].wall};
  unsigned long long repair_crossings_max = 0;
  std::vector<sparse::CsrMatrix> perturbed_store;
  perturbed_store.reserve(std::size(edits));
  for (const auto& e : edits) {
    const auto delta = sparse::random_pattern_delta(
        adjacency, e.adds, e.removes, e.seed, small_lo, adjacency.n());
    perturbed_store.push_back(gen::with_laplacian_values(
        sparse::apply_pattern_delta(adjacency, delta), 0.02));
    const auto& perturbed = perturbed_store.back();
    const auto rep = timed_submit(perturbed, e.name);
    if (!rep.repair_hit || rep.cache_hit) {
      std::printf("ERROR: a small-component delta did not repair!\n");
      return 1;
    }
    if (rep.ordering_crossings == 0 ||
        rep.ordering_crossings >= cold_ordering) {
      std::printf("ERROR: repair crossings (%llu) not strictly between a "
                  "hit's zero and the cold run's %llu!\n",
                  static_cast<unsigned long long>(rep.ordering_crossings),
                  static_cast<unsigned long long>(cold_ordering));
      return 1;
    }
    repair_wall_sum += delta_points.back().wall;
    repair_crossings_max =
        std::max(repair_crossings_max, delta_points.back().crossings);
    // The repaired entry is first-class: resubmitting the perturbed
    // pattern is a pure hit.
    const auto rehit = timed_submit(perturbed, "hit");
    if (!rehit.cache_hit || rehit.ordering_crossings != 0) {
      std::printf("ERROR: a repaired pattern did not re-hit purely!\n");
      return 1;
    }
    hit_walls.push_back(delta_points.back().wall);
  }

  const double repair_mean = repair_wall_sum / std::size(edits);
  double hit_sum = 0.0;
  for (const double w : hit_walls) hit_sum += w;
  const double hit_mean = hit_sum / static_cast<double>(hit_walls.size());
  const double delta_cold_wall = delta_points[0].wall;
  std::printf("\ncold %.3f s  >  repair mean %.3f s  >  hit mean %.3f s; "
              "repair crossings <= %llu, cold %llu\n",
              delta_cold_wall, repair_mean, hit_mean, repair_crossings_max,
              static_cast<unsigned long long>(cold_ordering));
  if (!(hit_mean < repair_mean && repair_mean < delta_cold_wall)) {
    std::printf("ERROR: repair wall is not strictly between hit and cold!\n");
    return 1;
  }
  std::printf("delta gates hold: every edit repaired, priced strictly "
              "between a hit and a cold run.\n");

  if (delta_json_path != nullptr) {
    std::FILE* f = std::fopen(delta_json_path, "w");
    if (f == nullptr) {
      std::printf("ERROR: cannot open %s for writing\n", delta_json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"ordering_service_delta\",\n");
    std::fprintf(f,
                 "  \"service\": {\"ranks\": %d, \"repair_max_windows\": %d},\n",
                 delta_options.ranks, service::kRepairMaxWindows);
    std::fprintf(f, "  \"pattern\": {\"n\": %lld, \"nnz\": %lld},\n",
                 static_cast<long long>(base.n()),
                 static_cast<long long>(base.nnz()));
    std::fprintf(f, "  \"requests\": [\n");
    for (std::size_t i = 0; i < delta_points.size(); ++i) {
      const auto& pt = delta_points[i];
      std::fprintf(f,
                   "    {\"kind\": \"%s\", \"wall_s\": %.6f, "
                   "\"ordering_crossings\": %llu, \"changed_windows\": %d, "
                   "\"level_steps_skipped\": %lld}%s\n",
                   pt.kind, pt.wall, pt.crossings, pt.changed_windows,
                   pt.level_steps_skipped,
                   i + 1 < delta_points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"summary\": {\n");
    std::fprintf(f, "    \"cold_wall_s\": %.6f,\n", delta_cold_wall);
    std::fprintf(f, "    \"repair_mean_wall_s\": %.6f,\n", repair_mean);
    std::fprintf(f, "    \"hit_mean_wall_s\": %.6f,\n", hit_mean);
    std::fprintf(f, "    \"cold_ordering_crossings\": %llu,\n",
                 static_cast<unsigned long long>(cold_ordering));
    std::fprintf(f, "    \"repair_max_ordering_crossings\": %llu,\n",
                 repair_crossings_max);
    std::fprintf(f, "    \"repairs\": %zu\n  }\n}\n", std::size(edits));
    std::fclose(f);
    std::printf("wrote %s\n", delta_json_path);
  }
  return 0;
}
