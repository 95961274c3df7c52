// Duplicate tracking: the counted, keyed value table (core/value_table.h)
// and the exact membership rule ModulationTree keeps with it.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/bulk_geometry.h"
#include "core/tree.h"
#include "core/value_table.h"
#include "crypto/random.h"
#include "support/harness.h"

namespace fgad::core {
namespace {

using crypto::DeterministicRandom;
using crypto::Md;

ModulationTree random_tree(std::size_t n, DeterministicRandom& rnd) {
  ModulationTree tree(ModulationTree::Config{HashAlg::kSha1, true});
  tree.build(
      n, [&](NodeId) { return rnd.random_md(20); },
      [&](NodeId v) {
        return std::pair<Md, std::uint64_t>(rnd.random_md(20), v);
      });
  return tree;
}

/// Every modulator value the tree holds, sorted, one entry per copy.
std::vector<Md> tree_values(const ModulationTree& t) {
  std::vector<Md> out;
  for (NodeId v = 1; v < t.node_count(); ++v) {
    out.push_back(t.link_mod(v));
  }
  for (NodeId v = 0; v < t.node_count(); ++v) {
    if (t.is_leaf(v)) out.push_back(t.leaf_mod(v));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ValueTable, CountsCopies) {
  DeterministicRandom rnd(1);
  ValueTable table(20);
  const Md a = rnd.random_md(20);
  table.add(a);
  table.add(a);
  EXPECT_EQ(table.size(), 1u);
  table.remove(a);
  EXPECT_TRUE(table.contains(a));
  table.remove(a);
  EXPECT_FALSE(table.contains(a));
  EXPECT_EQ(table.size(), 0u);
  table.remove(a);  // absent: ignored
  EXPECT_FALSE(table.contains(a));
}

TEST(ValueTable, ValuesDifferingInTheLastByteStayApart) {
  DeterministicRandom rnd(2);
  for (const std::size_t width : {std::size_t{20}, std::size_t{32}}) {
    ValueTable table(width);
    std::vector<Md> base;
    for (int i = 0; i < 200; ++i) {
      base.push_back(rnd.random_md(width));
      table.add(base.back());
    }
    for (Md v : base) {
      v.data()[width - 1] ^= 0x01;
      EXPECT_FALSE(table.contains(v)) << width;
      table.add(v);
      EXPECT_TRUE(table.contains(v));
    }
    for (const Md& v : base) {
      table.remove(v);
      EXPECT_FALSE(table.contains(v)) << width;
      Md twin = v;
      twin.data()[width - 1] ^= 0x01;
      EXPECT_TRUE(table.contains(twin)) << width;
    }
    EXPECT_EQ(table.size(), base.size());
  }
}

TEST(ValueTable, WrongWidthIsNeverHeld) {
  DeterministicRandom rnd(3);
  ValueTable table(20);
  const Md wide = rnd.random_md(32);
  EXPECT_THROW(table.add(wide), std::invalid_argument);
  EXPECT_FALSE(table.contains(wide));
  EXPECT_FALSE(table.contains(Md{}));
}

TEST(ValueTable, GrowsShrinksAndKeepsEveryValue) {
  DeterministicRandom rnd(4);
  ValueTable table(20);
  table.reset(4);
  std::vector<Md> held;
  for (int i = 0; i < 5000; ++i) {
    held.push_back(rnd.random_md(20));
    table.add(held.back());
  }
  const std::size_t grown = table.memory_bytes();
  for (std::size_t i = 0; i < held.size(); i += 2) {
    table.remove(held[i]);
  }
  for (std::size_t i = 0; i < held.size(); ++i) {
    ASSERT_EQ(table.contains(held[i]), i % 2 == 1) << i;
  }
  for (std::size_t i = 1; i < held.size(); i += 2) {
    table.remove(held[i]);
  }
  EXPECT_EQ(table.size(), 0u);
  EXPECT_LT(table.memory_bytes(), grown);
}

// A tree may hold one value twice (an outsourced tree is accepted as sent).
// Deleting leaf 13 of an 8-leaf tree adjusts link 3 but not link 5, so a
// repeat of link 3 at link 5 must stay reported, and a commit reusing it
// must be refused.
TEST(DuplicateTracking, ValueHeldTwiceStaysUntilItsLastCopyLeaves) {
  DeterministicRandom rnd(5);
  const Md shared = rnd.random_md(20);
  ModulationTree tree(ModulationTree::Config{HashAlg::kSha1, true});
  tree.build(
      8,
      [&](NodeId v) { return v == 3 || v == 5 ? shared : rnd.random_md(20); },
      [&](NodeId v) {
        return std::pair<Md, std::uint64_t>(rnd.random_md(20), v);
      });
  DeleteCommit del;
  del.leaf = 13;
  for (int i = 0; i < 3; ++i) del.deltas.push_back(rnd.random_md(20));
  del.has_balance = true;
  del.promoted_leaf_mod = rnd.random_md(20);
  ASSERT_TRUE(tree.apply_delete(del).is_ok());
  ASSERT_NE(tree.link_mod(3), shared);
  ASSERT_EQ(tree.link_mod(5), shared);
  EXPECT_TRUE(tree.contains_value(shared));

  InsertCommit ins;
  ins.q = tree.insert_parent();
  ins.left_link = shared;
  ins.right_link = rnd.random_md(20);
  ins.moved_leaf_mod = rnd.random_md(20);
  ins.new_leaf_mod = rnd.random_md(20);
  EXPECT_EQ(tree.apply_insert(ins, 99).code(), Errc::kDuplicateModulator);
}

TEST(DuplicateTracking, SerializeRoundTripKeepsMembershipAndCopies) {
  DeterministicRandom rnd(6);
  ModulationTree tree = random_tree(300, rnd);
  const Md twice = tree.link_mod(7);
  tree.set_link_mod(9, twice);
  proto::Writer w;
  tree.serialize(w);
  proto::Reader r(w.data());
  auto loaded = ModulationTree::deserialize(r, {HashAlg::kSha1, true});
  ASSERT_TRUE(loaded.is_ok());
  for (const Md& v : tree_values(tree)) {
    ASSERT_TRUE(loaded.value().contains_value(v));
  }
  EXPECT_FALSE(loaded.value().contains_value(rnd.random_md(20)));
  loaded.value().set_link_mod(7, rnd.random_md(20));
  EXPECT_TRUE(loaded.value().contains_value(twice));
  loaded.value().set_link_mod(9, rnd.random_md(20));
  EXPECT_FALSE(loaded.value().contains_value(twice));
}

// A seeded run of deletes, bulk deletes, inserts and tamper-hook writes on
// tracked trees of 1 to 2^12 leaves. After every operation the tree must
// report each value it holds, and a sample of values seen earlier must be
// reported exactly when the tree still holds them.
TEST(DuplicateTracking, SeededOperationsKeepMembershipExact) {
  DeterministicRandom rnd(2026);
  const std::size_t sizes[] = {1, 2, 3, 5, 8, 17, 64, 255, 1024, 4096};
  std::size_t ops = 0;
  for (const std::size_t n : sizes) {
    ModulationTree tree = random_tree(n, rnd);
    std::vector<Md> seen;
    for (int step = 0; step < 1000; ++step, ++ops) {
      const std::uint64_t pick = rnd.random_u64() % 100;
      const std::size_t nodes = tree.node_count();
      if (nodes == 0 || pick < 35) {
        // Insert (the only operation on an empty tree).
        InsertCommit c;
        c.empty_tree = nodes == 0;
        c.root_leaf_mod = rnd.random_md(20);
        if (!c.empty_tree) {
          c.q = tree.insert_parent();
          c.left_link = rnd.random_md(20);
          c.right_link = rnd.random_md(20);
          c.moved_leaf_mod = rnd.random_md(20);
          c.new_leaf_mod = rnd.random_md(20);
        }
        ASSERT_TRUE(tree.apply_insert(c, step).is_ok());
      } else if (pick < 65) {
        const NodeId last = static_cast<NodeId>(nodes - 1);
        const NodeId d = static_cast<NodeId>(
            tree.leaf_count() - 1 + rnd.random_u64() % tree.leaf_count());
        DeleteCommit c;
        c.leaf = d;
        for (unsigned i = 0; i < depth_of(d); ++i) {
          c.deltas.push_back(rnd.random_md(20));
        }
        c.has_balance = tree.leaf_count() > 1;
        if (c.has_balance) {
          c.promoted_leaf_mod = rnd.random_md(20);
          c.has_step2 = d != last && d != last - 1;
          c.t_new_link = rnd.random_md(20);
          c.t_new_leaf_mod = rnd.random_md(20);
        }
        ASSERT_TRUE(tree.apply_delete(c).is_ok());
      } else if (pick < 80) {
        std::vector<NodeId> leaves;
        const std::size_t first = tree.leaf_count() - 1;
        for (NodeId v = first; v < nodes; ++v) {
          if (rnd.random_u64() % 4 == 0) leaves.push_back(v);
        }
        if (leaves.empty()) leaves.push_back(static_cast<NodeId>(first));
        DeleteManyCommit c;
        c.leaves = leaves;
        c.deltas.resize(merged_cut_nodes(nodes, leaves).size());
        for (Md& delta : c.deltas) delta = rnd.random_md(20);
        const BulkGeometry geo = bulk_geometry(nodes, leaves);
        for (NodeId h : geo.holes) {
          DeleteManyCommit::Reloc rl;
          rl.new_leaf_mod = rnd.random_md(20);
          rl.has_new_link =
              std::binary_search(leaves.begin(), leaves.end(), h);
          if (rl.has_new_link) rl.new_link = rnd.random_md(20);
          c.relocs.push_back(rl);
        }
        ASSERT_TRUE(tree.apply_delete_many(c).is_ok());
      } else {
        // Tamper hooks, half the time copying a value the tree holds so
        // some values are held twice.
        const NodeId v = static_cast<NodeId>(rnd.random_u64() % nodes);
        const std::vector<Md> held = tree_values(tree);
        const Md m = rnd.random_u64() % 2 == 0
                         ? held[rnd.random_u64() % held.size()]
                         : rnd.random_md(20);
        if (tree.is_leaf(v) && rnd.random_u64() % 2 == 0) {
          tree.set_leaf_mod(v, m);
        } else if (v != root_id()) {
          tree.set_link_mod(v, m);
        }
      }
      const std::vector<Md> held = tree_values(tree);
      for (const Md& v : held) {
        ASSERT_TRUE(tree.contains_value(v)) << "op " << ops;
      }
      for (int k = 0; k < 32 && !seen.empty(); ++k) {
        const Md& v = seen[rnd.random_u64() % seen.size()];
        ASSERT_EQ(tree.contains_value(v),
                  std::binary_search(held.begin(), held.end(), v))
            << "op " << ops;
      }
      for (int k = 0; k < 4 && !held.empty(); ++k) {
        seen.push_back(held[rnd.random_u64() % held.size()]);
      }
    }
  }
  EXPECT_GE(ops, 10000u);
}

// kDuplicateModulator for the server's own values, through the client math:
// a delete whose promoted leaf modulator repeats a tree value, and a bulk
// delete whose relocation does.
TEST(DuplicateTracking, DeletePromotedLeafModulatorReusingATreeValue) {
  test::Harness h(HashAlg::kSha1, 77);
  h.outsource(8);
  auto slot = h.store().items().find(2);
  ASSERT_TRUE(slot.has_value());
  auto info = h.store().delete_begin(*slot);
  ASSERT_TRUE(info.is_ok());
  crypto::MasterKey fresh = crypto::MasterKey::generate(h.rnd(), 20);
  auto plan = h.math().plan_delete(info.value(), h.master().value(),
                                   fresh.value(), h.rnd());
  ASSERT_TRUE(plan.is_ok());
  ASSERT_TRUE(plan.value().commit.has_balance);
  plan.value().commit.promoted_leaf_mod = h.store().tree().link_mod(1);
  EXPECT_EQ(h.store().delete_commit(plan.value().commit).code(),
            Errc::kDuplicateModulator);
  h.verify_all();
}

TEST(DuplicateTracking, DeleteManyRelocationReusingATreeValue) {
  test::Harness h(HashAlg::kSha1, 78);
  h.outsource(16);
  std::vector<std::uint32_t> slots;
  for (std::uint64_t id : {1, 4, 6}) {
    slots.push_back(*h.store().items().find(id));
  }
  auto info = h.store().delete_many_begin(slots);
  ASSERT_TRUE(info.is_ok());
  crypto::MasterKey fresh = crypto::MasterKey::generate(h.rnd(), 20);
  auto plan = h.math().plan_delete_many(info.value(), h.master().value(),
                                        fresh.value(), h.rnd());
  ASSERT_TRUE(plan.is_ok());
  ASSERT_FALSE(plan.value().commit.relocs.empty());
  plan.value().commit.relocs.front().new_leaf_mod =
      h.store().tree().link_mod(2);
  EXPECT_EQ(h.store().delete_many_commit(plan.value().commit).code(),
            Errc::kDuplicateModulator);
  h.verify_all();
}

}  // namespace
}  // namespace fgad::core
