// Unit tests for parallel/emit.hpp — block-local emission (emit_pack,
// count_then_emit), edge-balanced traversal (frontier_edge_for), and the
// split-piece stitching protocol — plus pipeline-level determinism checks:
// the emission order and the contracted/dedup output must be identical
// across worker counts and chunk widths.

#include "parallel/emit.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/component_index.hpp"
#include "core/connectivity.hpp"
#include "core/contract.hpp"
#include "core/ldd.hpp"
#include "graph/generators.hpp"
#include "parallel/atomics.hpp"
#include "parallel/scheduler.hpp"

namespace {

using namespace pcc;
using parallel::emit_pack;
using parallel::emitter;
using parallel::frontier_edge_opts;
using parallel::frontier_piece;
using parallel::frontier_result;
using parallel::scoped_workers;
using parallel::workspace;

// ---------------------------------------------------------------------------
// emit_pack

TEST(EmitPack, EmptyInput) {
  workspace ws;
  std::vector<uint32_t> out(4, 77);
  const size_t n = emit_pack<uint32_t>(
      0, std::span<uint32_t>(out), ws,
      [&](size_t, emitter<uint32_t>&) { FAIL() << "body ran on empty input"; });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(out[0], 77u);
}

TEST(EmitPack, SingletonInput) {
  workspace ws;
  std::vector<uint32_t> out(1);
  const size_t n = emit_pack<uint32_t>(
      1, std::span<uint32_t>(out), ws,
      [&](size_t i, emitter<uint32_t>& em) { em(static_cast<uint32_t>(i + 9)); });
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(out[0], 9u);
}

TEST(EmitPack, FilterKeepsIndexOrder) {
  workspace ws;
  const size_t n = 10000;
  std::vector<uint32_t> out(n);
  // grain 64 forces many blocks even at this size.
  const size_t kept = emit_pack<uint32_t>(
      n, std::span<uint32_t>(out), ws,
      [&](size_t i, emitter<uint32_t>& em) {
        if (i % 3 == 0) em(static_cast<uint32_t>(i));
      },
      1, 64);
  ASSERT_EQ(kept, (n + 2) / 3);
  for (size_t k = 0; k < kept; ++k) EXPECT_EQ(out[k], 3 * k);
}

TEST(EmitPack, BodyRunsExactlyOncePerIndex) {
  workspace ws;
  const size_t n = 5000;
  std::vector<uint32_t> runs(n, 0);
  std::vector<uint32_t> out(n);
  (void)emit_pack<uint32_t>(
      n, std::span<uint32_t>(out), ws,
      [&](size_t i, emitter<uint32_t>& em) {
        parallel::fetch_add(&runs[i], 1u);
        if (i & 1) em(static_cast<uint32_t>(i));
      },
      1, 64);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(runs[i], 1u) << "index " << i;
}

TEST(EmitPack, MaxPerIndexAboveOne) {
  workspace ws;
  const size_t n = 4000;
  std::vector<uint32_t> out(3 * n);
  const size_t total = emit_pack<uint32_t>(
      n, std::span<uint32_t>(out), ws,
      [&](size_t i, emitter<uint32_t>& em) {
        for (size_t r = 0; r < i % 4; ++r) em(static_cast<uint32_t>(i));
      },
      3, 128);
  size_t expect = 0;
  for (size_t i = 0; i < n; ++i) expect += i % 4;
  ASSERT_EQ(total, expect);
  // Index order: all copies of i precede all copies of j for i < j.
  for (size_t k = 1; k < total; ++k) EXPECT_LE(out[k - 1], out[k]);
}

// ---------------------------------------------------------------------------
// count_then_emit

TEST(CountThenEmit, EmptyInput) {
  workspace ws;
  std::vector<uint32_t> out(1);
  EXPECT_EQ(parallel::count_then_emit<uint32_t>(
                0, std::span<uint32_t>(out), ws,
                [&](size_t, auto&) { FAIL(); }),
            0u);
}

TEST(CountThenEmit, MatchesSerialFilter) {
  workspace ws;
  const size_t n = 20000;
  std::vector<uint32_t> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<uint32_t>((i * 7) % 11);
  std::vector<uint32_t> out(n);
  const size_t kept = parallel::count_then_emit<uint32_t>(
      n, std::span<uint32_t>(out), ws,
      [&](size_t i, auto& em) {
        if (data[i] < 4) em(data[i] * 100 + static_cast<uint32_t>(i % 100));
      },
      256);
  std::vector<uint32_t> expect;
  for (size_t i = 0; i < n; ++i) {
    if (data[i] < 4) expect.push_back(data[i] * 100 +
                                      static_cast<uint32_t>(i % 100));
  }
  ASSERT_EQ(kept, expect.size());
  for (size_t k = 0; k < kept; ++k) ASSERT_EQ(out[k], expect[k]);
}

// ---------------------------------------------------------------------------
// frontier_edge_for

TEST(FrontierEdgeFor, EmptyFrontier) {
  workspace ws;
  std::vector<uint32_t> out(1);
  const frontier_result run = parallel::frontier_edge_for<uint32_t>(
      0, [](size_t) { return 0u; }, std::span<uint32_t>(out), ws,
      [&](size_t, uint32_t, uint32_t, uint32_t, emitter<uint32_t>&)
          -> uint32_t {
        ADD_FAILURE() << "visit ran on empty frontier";
        return 0;
      });
  EXPECT_EQ(run.emitted, 0u);
  EXPECT_TRUE(run.partials.empty());
}

TEST(FrontierEdgeFor, AllZeroDegrees) {
  workspace ws;
  std::vector<uint32_t> out(1);
  const frontier_result run = parallel::frontier_edge_for<uint32_t>(
      100, [](size_t) { return 0u; }, std::span<uint32_t>(out), ws,
      [&](size_t, uint32_t, uint32_t, uint32_t, emitter<uint32_t>&)
          -> uint32_t {
        ADD_FAILURE() << "visit ran with no edges";
        return 0;
      });
  EXPECT_EQ(run.emitted, 0u);
}

TEST(FrontierEdgeFor, SingletonEntrySeesWholeRange) {
  workspace ws;
  std::vector<uint32_t> out(10);
  size_t calls = 0;
  const frontier_result run = parallel::frontier_edge_for<uint32_t>(
      1, [](size_t) { return 10u; }, std::span<uint32_t>(out), ws,
      [&](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t deg,
          emitter<uint32_t>& em) -> uint32_t {
        ++calls;
        EXPECT_EQ(fi, 0u);
        EXPECT_EQ(jlo, 0u);
        EXPECT_EQ(jhi, 10u);
        EXPECT_EQ(deg, 10u);
        for (uint32_t j = jlo; j < jhi; ++j) em(j);
        return jhi - jlo;
      });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(run.emitted, 10u);
  EXPECT_TRUE(run.partials.empty());  // whole-entry pieces are not recorded
  for (uint32_t j = 0; j < 10; ++j) EXPECT_EQ(out[j], j);
}

// Mixed degrees with a dominating hub: every flattened slot must be visited
// exactly once, whatever the chunk width.
TEST(FrontierEdgeFor, CoversEveryEdgeSlotExactlyOnce) {
  const std::vector<uint32_t> degs = {3, 0, 5000, 1, 0, 17, 2048, 0, 9};
  const size_t total =
      std::accumulate(degs.begin(), degs.end(), size_t{0});
  std::vector<edge_id> off(degs.size() + 1, 0);
  for (size_t i = 0; i < degs.size(); ++i) off[i + 1] = off[i] + degs[i];
  for (const size_t chunk : {size_t{1}, size_t{7}, size_t{512}, size_t{0}}) {
    workspace ws;
    std::vector<uint32_t> seen(total, 0);
    const frontier_result run = parallel::frontier_edge_for(
        degs.size(), [&](size_t fi) { return degs[fi]; }, ws,
        [&](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t deg) -> uint32_t {
          EXPECT_EQ(deg, degs[fi]);
          EXPECT_LE(jhi, deg);
          for (uint32_t j = jlo; j < jhi; ++j) {
            parallel::fetch_add(&seen[off[fi] + j], 1u);
          }
          return jhi - jlo;
        },
        frontier_edge_opts{chunk});
    for (size_t s = 0; s < total; ++s) {
      ASSERT_EQ(seen[s], 1u) << "slot " << s << " chunk " << chunk;
    }
    // Split pieces of one entry must be consecutive and in ascending order.
    for (size_t i = 1; i < run.partials.size(); ++i) {
      if (run.partials[i].fi == run.partials[i - 1].fi) {
        EXPECT_EQ(run.partials[i].jlo, run.partials[i - 1].jhi);
      }
    }
  }
}

// Emissions land in flattened edge order — independent of chunk width
// and worker count.
TEST(FrontierEdgeFor, EmissionOrderIsFlattenedEdgeOrder) {
  const std::vector<uint32_t> degs = {5, 4096, 0, 3, 100, 1};
  const size_t total = std::accumulate(degs.begin(), degs.end(), size_t{0});
  const auto body = [&](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t,
                        emitter<uint64_t>& em) -> uint32_t {
    for (uint32_t j = jlo; j < jhi; ++j) {
      if ((fi + j) % 3 == 0) em((static_cast<uint64_t>(fi) << 32) | j);
    }
    return 0;
  };
  // Serial reference = single chunk at one worker.
  std::vector<uint64_t> expect(total);
  size_t expect_n = 0;
  {
    scoped_workers one(1);
    workspace ws;
    expect_n = parallel::frontier_edge_for<uint64_t>(
                   degs.size(), [&](size_t fi) { return degs[fi]; },
                   std::span<uint64_t>(expect), ws, body)
                   .emitted;
  }
  ASSERT_GT(expect_n, 0u);
  for (const int workers : {1, 2, 4}) {
    scoped_workers wg(workers);
    for (const size_t chunk : {size_t{0}, size_t{9}, size_t{1024}}) {
      workspace ws;
      std::vector<uint64_t> out(total);
      const frontier_result run = parallel::frontier_edge_for<uint64_t>(
          degs.size(), [&](size_t fi) { return degs[fi]; },
          std::span<uint64_t>(out), ws, body, frontier_edge_opts{chunk});
      ASSERT_EQ(run.emitted, expect_n);
      for (size_t k = 0; k < expect_n; ++k) {
        ASSERT_EQ(out[k], expect[k])
            << "workers " << workers
            << " chunk " << chunk << " pos " << k;
      }
    }
  }
}

// Hub-heavy in-place compaction: pieces compact their own subrange, split
// entries are stitched by fix_split_pieces. Result must equal the serial
// filter whatever the chunk width.
TEST(FrontierEdgeFor, SplitPieceCompactionMatchesSerial) {
  const std::vector<uint32_t> degs = {7, 3000, 2, 0, 41, 999};
  std::vector<edge_id> off(degs.size() + 1, 0);
  for (size_t i = 0; i < degs.size(); ++i) off[i + 1] = off[i] + degs[i];
  const size_t total = off.back();
  std::vector<uint32_t> base(total);
  for (size_t s = 0; s < total; ++s) base[s] = static_cast<uint32_t>((s * 13) % 7);

  // Serial reference: keep values < 3, per entry, order-preserving.
  std::vector<std::vector<uint32_t>> expect(degs.size());
  for (size_t fi = 0; fi < degs.size(); ++fi) {
    for (uint32_t j = 0; j < degs[fi]; ++j) {
      const uint32_t x = base[off[fi] + j];
      if (x < 3) expect[fi].push_back(x);
    }
  }

  for (const size_t chunk : {size_t{1}, size_t{64}, size_t{0}}) {
    std::vector<uint32_t> E = base;
    std::vector<uint32_t> D(degs.begin(), degs.end());
    workspace ws;
    const frontier_result run = parallel::frontier_edge_for(
        degs.size(), [&](size_t fi) { return degs[fi]; }, ws,
        [&](size_t fi, uint32_t jlo, uint32_t jhi, uint32_t deg) -> uint32_t {
          uint32_t k = jlo;
          for (uint32_t j = jlo; j < jhi; ++j) {
            const uint32_t x = E[off[fi] + j];
            if (x < 3) {
              // lint: private-write(piece owns slots [jlo, jhi) of entry fi)
              E[off[fi] + k] = x;
              ++k;
            }
          }
          if (jlo == 0 && jhi == deg) {
            // lint: private-write(whole-entry piece: sole writer)
            D[fi] = k;
          }
          return k - jlo;
        },
        frontier_edge_opts{chunk});
    parallel::fix_split_pieces(
        run.partials,
        [&](uint32_t fi, uint32_t dst, uint32_t src, uint32_t len) {
          std::copy(E.begin() + off[fi] + src, E.begin() + off[fi] + src + len,
                    E.begin() + off[fi] + dst);
        },
        [&](uint32_t fi, uint32_t kept) {
          // lint: private-write(one leader task per split entry)
          D[fi] = kept;
        });
    for (size_t fi = 0; fi < degs.size(); ++fi) {
      ASSERT_EQ(D[fi], expect[fi].size()) << "entry " << fi << " chunk " << chunk;
      for (size_t k = 0; k < expect[fi].size(); ++k) {
        ASSERT_EQ(E[off[fi] + k], expect[fi][k])
            << "entry " << fi << " slot " << k << " chunk " << chunk;
      }
    }
  }
}

TEST(FixSplitPieces, EmptyIsNoOp) {
  parallel::fix_split_pieces(
      std::span<const frontier_piece>{},
      [&](uint32_t, uint32_t, uint32_t, uint32_t) { FAIL(); },
      [&](uint32_t, uint32_t) { FAIL(); });
}

// ---------------------------------------------------------------------------
// Pipeline-level determinism across thread counts.

TEST(Determinism, DecompMinClusterLabelsAcrossThreadCounts) {
  const graph::graph g = graph::rmat_graph(4096, 30000, 11);
  ldd::options opt;
  opt.beta = 0.2;
  opt.seed = 42;
  std::vector<vertex_id> reference;
  for (const int workers : {1, 2, 4}) {
    scoped_workers wg(workers);
    const ldd::result dec = ldd::decompose_min(g, opt);
    if (reference.empty()) {
      reference = dec.cluster;
      ASSERT_FALSE(reference.empty());
    } else {
      ASSERT_EQ(dec.cluster, reference)
          << "workers " << workers;
    }
  }
}

TEST(Determinism, ContractDedupOutputAcrossThreadCounts) {
  const graph::graph g = graph::rmat_graph(2048, 20000, 13);
  ldd::options opt;
  opt.beta = 0.25;
  opt.seed = 7;
  // Fix one decomposition, then contract it repeatedly: the dedup insert
  // races pick arbitrary winners, but the final CSR must not depend on
  // them (the sort is total on the distinct keys).
  ldd::work_graph wg = ldd::work_graph::from(g);
  const ldd::result dec = ldd::decomp_min(wg, opt, nullptr);
  std::vector<edge_id> ref_off;
  std::vector<vertex_id> ref_edges;
  for (const int workers : {1, 2, 4}) {
    scoped_workers wkg(workers);
    const cc::contraction con = cc::contract(wg, dec, /*dedup=*/true);
    if (ref_off.empty()) {
      ref_off = con.contracted.offsets();
      ref_edges = con.contracted.edges();
      ASSERT_FALSE(ref_off.empty());
    } else {
      ASSERT_EQ(con.contracted.offsets(), ref_off)
          << "workers " << workers;
      ASSERT_EQ(con.contracted.edges(), ref_edges)
          << "workers " << workers;
    }
  }
}

TEST(Determinism, ComponentIndexGroupingIsSortedAndStable) {
  const graph::graph g = graph::rmat_graph(2048, 12000, 17);
  const std::vector<vertex_id> labels = cc::connected_components(g);
  std::vector<std::vector<vertex_id>> reference;
  for (const int workers : {1, 4}) {
    scoped_workers wg(workers);
    const cc::component_index idx(labels);
    std::vector<std::vector<vertex_id>> got;
    for (size_t c = 0; c < idx.num_components(); ++c) {
      const std::span<const vertex_id> mem =
          idx.members(static_cast<vertex_id>(c));
      got.emplace_back(mem.begin(), mem.end());
      // Members are emitted in ascending vertex order (stable radix sort).
      EXPECT_TRUE(std::is_sorted(mem.begin(), mem.end()));
    }
    if (reference.empty()) {
      reference = std::move(got);
    } else {
      ASSERT_EQ(got, reference) << "workers " << workers;
    }
  }
}

}  // namespace
