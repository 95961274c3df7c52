// Ablation A4: google-benchmark micro suite for the core primitives —
// chain steps, key derivation by depth, delete planning by tree size, item
// sealing by payload size. These are the constants behind Figures 5/6.
// Two server-side rows time what the durable server does under its
// dispatch lock: a tracked tree's delete apply and a whole outsource.
// Unless the caller passes its own --benchmark_out, results are also written
// to BENCH_micro_core.json (google-benchmark's native JSON format).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "cloud/server.h"
#include "core/batch_derive.h"
#include "core/client_math.h"
#include "core/item_codec.h"
#include "core/outsource.h"
#include "core/tree.h"
#include "crypto/random.h"
#include "crypto/secure_buffer.h"
#include "proto/messages.h"

namespace {

using namespace fgad;
using core::BatchDeriver;
using core::ClientMath;
using core::ItemCodec;
using core::ModulationTree;
using core::ModulatedHashChain;
using core::NodeId;
using crypto::DeterministicRandom;
using crypto::HashAlg;
using crypto::MasterKey;
using crypto::Md;

void BM_ChainStep(benchmark::State& state) {
  const auto alg = static_cast<HashAlg>(state.range(0));
  ModulatedHashChain chain(alg);
  DeterministicRandom rnd(1);
  Md cur = rnd.random_md(chain.width());
  const Md x = rnd.random_md(chain.width());
  for (auto _ : state) {
    cur = chain.step(cur, x);
    benchmark::DoNotOptimize(cur);
  }
}
BENCHMARK(BM_ChainStep)
    ->Arg(static_cast<int>(HashAlg::kSha1))
    ->Arg(static_cast<int>(HashAlg::kSha256));

void BM_ChainEvalByDepth(benchmark::State& state) {
  ModulatedHashChain chain(HashAlg::kSha1);
  DeterministicRandom rnd(2);
  const Md k = rnd.random_md(20);
  std::vector<Md> mods(static_cast<std::size_t>(state.range(0)));
  for (auto& m : mods) m = rnd.random_md(20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.eval(k, mods));
  }
}
BENCHMARK(BM_ChainEvalByDepth)->RangeMultiplier(2)->Range(4, 32);

struct TreeFixture {
  explicit TreeFixture(std::size_t n)
      : rnd(n),
        math(HashAlg::kSha1),
        tree(ModulationTree::Config{HashAlg::kSha1, false}),
        master(MasterKey::generate(rnd, 20)) {
    tree.build(
        n, [&](NodeId) { return rnd.random_md(20); },
        [&](NodeId v) {
          return std::pair<Md, std::uint64_t>(rnd.random_md(20), v);
        });
  }
  DeterministicRandom rnd;
  ClientMath math;
  ModulationTree tree;
  MasterKey master;
};

void BM_DeriveKeyByTreeSize(benchmark::State& state) {
  TreeFixture f(static_cast<std::size_t>(state.range(0)));
  const NodeId leaf = f.tree.last_leaf();
  const auto path = f.tree.path_to(leaf);
  const Md leaf_mod = f.tree.leaf_mod(leaf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.math.derive_key(f.master.value(), path, leaf_mod));
  }
}
BENCHMARK(BM_DeriveKeyByTreeSize)->RangeMultiplier(16)->Range(1 << 6, 1 << 22);

void BM_PlanDeleteByTreeSize(benchmark::State& state) {
  TreeFixture f(static_cast<std::size_t>(state.range(0)));
  const NodeId leaf =
      static_cast<NodeId>(f.tree.node_count() / 2 + 1);  // some deep leaf
  const auto info = f.tree.delete_info_for(f.tree.is_leaf(leaf)
                                               ? leaf
                                               : f.tree.last_leaf());
  const MasterKey fresh = MasterKey::generate(f.rnd, 20);
  for (auto _ : state) {
    auto plan =
        f.math.plan_delete(info, f.master.value(), fresh.value(), f.rnd);
    if (!plan) {
      state.SkipWithError("plan_delete failed");
      return;
    }
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanDeleteByTreeSize)
    ->RangeMultiplier(16)
    ->Range(1 << 6, 1 << 22);

void BM_DeriveAllKeys(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  DeterministicRandom rnd(3);
  ClientMath math(HashAlg::kSha1);
  const Md k = rnd.random_md(20);
  std::vector<Md> links(fgad::core::node_count_for(n));
  for (std::size_t v = 1; v < links.size(); ++v) links[v] = rnd.random_md(20);
  std::vector<Md> leaf_mods(n);
  for (auto& m : leaf_mods) m = rnd.random_md(20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(math.derive_all_keys(k, links, leaf_mods));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DeriveAllKeys)->Arg(1 << 10)->Arg(1 << 14);

// The parallel bulk engine against the scalar BM_DeriveAllKeys above:
// same derivation, partitioned across a thread pool. Args are
// (n, threads); threads = 1 is the inline seed-identical path.
void BM_BatchDeriveAllKeys(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  DeterministicRandom rnd(3);
  const Md k = rnd.random_md(20);
  std::vector<Md> links(fgad::core::node_count_for(n));
  for (std::size_t v = 1; v < links.size(); ++v) links[v] = rnd.random_md(20);
  std::vector<Md> leaf_mods(n);
  for (auto& m : leaf_mods) m = rnd.random_md(20);
  BatchDeriver::Options opts;
  opts.threads = threads;
  const BatchDeriver deriver(HashAlg::kSha1, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(deriver.derive_all_keys(k, links, leaf_mods));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BatchDeriveAllKeys)
    ->ArgsProduct({{1 << 14, 1 << 18}, {1, 2, 4, 8}});

void BM_SealByPayload(benchmark::State& state) {
  ItemCodec codec(HashAlg::kSha1);
  DeterministicRandom rnd(4);
  const Md key = rnd.random_md(20);
  const Bytes m(static_cast<std::size_t>(state.range(0)), 0x5a);
  std::uint64_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.seal(key, m, r++, rnd));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SealByPayload)->Arg(16)->Arg(256)->Arg(4096)->Arg(65536);

void BM_OpenByPayload(benchmark::State& state) {
  ItemCodec codec(HashAlg::kSha1);
  DeterministicRandom rnd(5);
  const Md key = rnd.random_md(20);
  const Bytes m(static_cast<std::size_t>(state.range(0)), 0x5a);
  const Bytes sealed = codec.seal(key, m, 1, rnd);
  for (auto _ : state) {
    auto opened = codec.open(key, sealed);
    benchmark::DoNotOptimize(opened);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OpenByPayload)->Arg(16)->Arg(256)->Arg(4096)->Arg(65536);

void BM_TreePathTo(benchmark::State& state) {
  TreeFixture f(static_cast<std::size_t>(state.range(0)));
  const NodeId leaf = f.tree.last_leaf();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.tree.path_to(leaf));
  }
}
BENCHMARK(BM_TreePathTo)->Arg(1 << 10)->Arg(1 << 20);

void BM_TreeDeleteInfo(benchmark::State& state) {
  TreeFixture f(static_cast<std::size_t>(state.range(0)));
  const NodeId leaf = f.tree.last_leaf() - 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.tree.delete_info_for(f.tree.is_leaf(leaf) ? leaf
                                                    : f.tree.last_leaf()));
  }
}
BENCHMARK(BM_TreeDeleteInfo)->Arg(1 << 10)->Arg(1 << 20);

// One delete commit applied to a tree with duplicate tracking on (the
// server's configuration): modulator adjustment on the cut, balancing, and
// the duplicate table's removals and additions. Each delete is followed,
// untimed, by an insert, so the tree keeps its size. The apply alone is
// timed (manual time), so benchmark's pause and resume cost no part of it.
void BM_TreeApplyDelete(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  DeterministicRandom rnd(n);
  ModulationTree tree(ModulationTree::Config{HashAlg::kSha1, true});
  tree.build(
      n, [&](NodeId) { return rnd.random_md(20); },
      [&](NodeId v) {
        return std::pair<Md, std::uint64_t>(rnd.random_md(20), v);
      });
  for (auto _ : state) {
    const NodeId last = tree.last_leaf();
    const NodeId d = static_cast<NodeId>(n - 1 + rnd.random_u64() % n);
    core::DeleteCommit del;
    del.leaf = d;
    for (unsigned i = 0; i < core::depth_of(d); ++i) {
      del.deltas.push_back(rnd.random_md(20));
    }
    del.has_balance = true;
    del.promoted_leaf_mod = rnd.random_md(20);
    del.has_step2 = d != last && d != last - 1;
    del.t_new_link = rnd.random_md(20);
    del.t_new_leaf_mod = rnd.random_md(20);
    const auto t0 = std::chrono::steady_clock::now();
    auto outcome = tree.apply_delete(del);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(outcome);
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    core::InsertCommit ins;
    ins.q = tree.insert_parent();
    ins.left_link = rnd.random_md(20);
    ins.right_link = rnd.random_md(20);
    ins.moved_leaf_mod = rnd.random_md(20);
    ins.new_leaf_mod = rnd.random_md(20);
    benchmark::DoNotOptimize(tree.apply_insert(ins, 0));
  }
}
BENCHMARK(BM_TreeApplyDelete)->Arg(1 << 12)->Arg(1 << 20)->UseManualTime();

// A whole outsource of 2^14 items of 256 B through CloudServer::dispatch,
// integrity and duplicate tracking on: request decode, tree decode and
// duplicate table, ingest with integrity hashing, install. The file is
// dropped, untimed, after each one.
void BM_OutsourceDispatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  DeterministicRandom rnd(n);
  const core::Outsourcer out(HashAlg::kSha1, /*track_duplicates=*/false);
  const MasterKey master = MasterKey::generate(rnd, 20);
  std::uint64_t counter = 0;
  core::OutsourcedFile built = out.build(
      master, n,
      [](std::size_t i) { return Bytes(256, static_cast<std::uint8_t>(i)); },
      counter, rnd);
  proto::OutsourceReq req;
  req.file_id = 1;
  proto::Writer w;
  built.tree.serialize(w);
  req.tree_blob = std::move(w).take();
  for (auto& it : built.items) {
    req.items.push_back(proto::OutsourceReq::Item{
        it.item_id, std::move(it.ciphertext), it.plain_size});
  }
  const Bytes frame = req.to_frame();
  cloud::CloudServer server;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    Bytes reply = server.dispatch(frame);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(reply);
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    if (!server.drop_file(1)) {
      state.SkipWithError("outsource failed");
    }
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_OutsourceDispatch)
    ->Arg(1 << 14)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();

}  // namespace

// BENCHMARK_MAIN, plus default JSON output (BENCH_micro_core.json) when the
// caller did not request its own --benchmark_out destination.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_core.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_argc = static_cast<int>(args.size());
  benchmark::Initialize(&args_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
