// One populated instance of every wire message struct, shared by the
// golden-frame test (tests/golden_frames_test.cpp) and the decode-edge and
// decode-fuzz sweeps. A message with a top-level optional group appears
// once per arm, under "Name/arm"; a group inside a list takes both arms
// across the list's elements.
#pragma once

#include <utility>

#include "proto/messages.h"

namespace fgad::test {

/// A 4-byte modulator whose bytes derive from `tag`, so every field of a
/// fixture carries a distinct, recognisable value.
inline crypto::Md fixture_md(std::uint8_t tag) {
  const std::uint8_t b[4] = {tag, 0xa5, static_cast<std::uint8_t>(tag + 1),
                             0x5a};
  return crypto::Md(BytesView(b, sizeof(b)));
}

/// Root-to-leaf path 0 -> 2 -> 5 with two links.
inline core::PathView fixture_path(std::uint8_t tag) {
  core::PathView p;
  p.nodes = {0, 2, 5};
  p.links = {fixture_md(tag), fixture_md(static_cast<std::uint8_t>(tag + 1))};
  return p;
}

inline core::CutEntry fixture_cut(core::NodeId node, std::uint8_t tag,
                                  bool is_leaf) {
  core::CutEntry e;
  e.node = node;
  e.link = fixture_md(tag);
  e.is_leaf = is_leaf;
  if (is_leaf) {
    e.leaf_mod = fixture_md(static_cast<std::uint8_t>(tag + 1));
  }
  return e;
}

/// Calls `f(name, message)` for every fixture, in a fixed order.
template <class F>
void for_each_message(F&& f) {
  using namespace proto;
  const auto md = fixture_md;

  f("ErrorMsg", ErrorMsg{Errc::kNotFound, "missing"});

  OutsourceReq outsource;
  outsource.file_id = 3;
  outsource.tree_blob = to_bytes("tree");
  outsource.items.push_back({11, to_bytes("ct-a"), 4});
  outsource.items.push_back({12, to_bytes("ct-b"), 4});
  f("OutsourceReq", outsource);

  f("AccessReq", AccessReq{9, ItemRef::byte_offset(100)});

  AccessResp access_resp;
  access_resp.info.path = fixture_path(1);
  access_resp.info.leaf_mod = md(10);
  access_resp.info.item_id = 17;
  access_resp.info.ciphertext = to_bytes("sealed");
  f("AccessResp", access_resp);

  f("ModifyReq", ModifyReq{1, 2, to_bytes("new-ct"), 6});
  f("InsertBeginReq", InsertBeginReq{4});

  InsertBeginResp ib;
  ib.info.q_path = fixture_path(20);
  ib.info.q_leaf_mod = md(30);
  f("InsertBeginResp", ib);
  InsertBeginResp ib_empty;
  ib_empty.info.empty_tree = true;
  f("InsertBeginResp/empty_tree", ib_empty);

  InsertCommitReq ic;
  ic.file_id = 4;
  ic.commit.q = 5;
  ic.commit.left_link = md(40);
  ic.commit.right_link = md(41);
  ic.commit.moved_leaf_mod = md(42);
  ic.commit.new_leaf_mod = md(43);
  ic.commit.item_id = 77;
  ic.commit.ciphertext = to_bytes("ct");
  ic.commit.plain_size = 2;
  ic.commit.after_item_id = 7;
  f("InsertCommitReq", ic);
  InsertCommitReq ic_empty;
  ic_empty.file_id = 4;
  ic_empty.commit.empty_tree = true;
  ic_empty.commit.root_leaf_mod = md(44);
  ic_empty.commit.item_id = 78;
  ic_empty.commit.ciphertext = to_bytes("first");
  ic_empty.commit.plain_size = 5;
  f("InsertCommitReq/empty_tree", ic_empty);

  f("DeleteBeginReq", DeleteBeginReq{4, ItemRef::ordinal(2)});

  DeleteBeginResp db;
  db.info.path = fixture_path(50);
  db.info.leaf_mod = md(52);
  db.info.cut = {fixture_cut(1, 53, false), fixture_cut(6, 55, true)};
  db.info.item_id = 21;
  db.info.ciphertext = to_bytes("target-ct");
  db.info.has_balance = true;
  db.info.t_path = fixture_path(57);
  db.info.t_leaf_mod = md(59);
  db.info.s_link = md(60);
  db.info.s_leaf_mod = md(61);
  f("DeleteBeginResp", db);
  DeleteBeginResp db_single;
  db_single.info.path.nodes = {0};
  db_single.info.leaf_mod = md(62);
  db_single.info.item_id = 22;
  db_single.info.ciphertext = to_bytes("only-ct");
  f("DeleteBeginResp/no_balance", db_single);

  DeleteCommitReq dc;
  dc.file_id = 4;
  dc.commit.leaf = 12;
  dc.commit.deltas = {md(70), md(71)};
  dc.commit.has_balance = true;
  dc.commit.promoted_leaf_mod = md(72);
  dc.commit.has_step2 = true;
  dc.commit.t_new_link = md(73);
  dc.commit.t_new_leaf_mod = md(74);
  f("DeleteCommitReq", dc);
  DeleteCommitReq dc_no_step2 = dc;
  dc_no_step2.commit.has_step2 = false;
  dc_no_step2.commit.t_new_link = {};
  dc_no_step2.commit.t_new_leaf_mod = {};
  f("DeleteCommitReq/no_step2", dc_no_step2);
  DeleteCommitReq dc_no_balance;
  dc_no_balance.file_id = 4;
  dc_no_balance.commit.leaf = 0;
  f("DeleteCommitReq/no_balance", dc_no_balance);

  f("DeleteManyBeginReq",
    DeleteManyBeginReq{4, {ItemRef::id(1), ItemRef::ordinal(2),
                           ItemRef::byte_offset(3)}});

  DeleteManyBeginResp dmb;
  dmb.info.node_count = 7;
  dmb.info.targets.push_back({fixture_path(80), md(82), 31, to_bytes("t1")});
  dmb.info.targets.push_back({fixture_path(83), md(85), 32, to_bytes("t2")});
  dmb.info.cut = {fixture_cut(1, 86, false), fixture_cut(6, 87, true)};
  dmb.info.hole_paths = {fixture_path(89)};
  dmb.info.movers.push_back({fixture_path(91), md(93)});
  f("DeleteManyBeginResp", dmb);

  DeleteManyCommitReq dmc;
  dmc.file_id = 4;
  dmc.commit.leaves = {5, 6};
  dmc.commit.deltas = {md(100), md(101)};
  dmc.commit.relocs.push_back({md(102), false, {}});
  dmc.commit.relocs.push_back({md(103), true, md(104)});
  f("DeleteManyCommitReq", dmc);

  f("FetchTreeReq", FetchTreeReq{8});
  f("FetchTreeResp", FetchTreeResp{to_bytes("serialized-tree")});
  f("FetchItemsReq", FetchItemsReq{8, 3, 16});

  FetchItemsResp fir;
  fir.items.push_back({7, 15, to_bytes("ct7")});
  fir.items.push_back({8, 16, to_bytes("ct8")});
  fir.more = true;
  f("FetchItemsResp", fir);

  f("ListItemsReq", ListItemsReq{8});
  f("ListItemsResp", ListItemsResp{{4, 8, 15}});
  f("DropFileReq", DropFileReq{8});
  f("StatReq", StatReq{8});
  f("StatResp", StatResp{10, 19, 1234});
  f("AuditReq", AuditReq{8, true, true, {1, 2, 3}});

  AuditResp audit_resp;
  audit_resp.root = md(110);
  {
    AuditResp::Entry e;
    e.item_id = 5;
    e.leaf = 9;
    e.has_ciphertext = true;
    e.ciphertext = to_bytes("ct5");
    e.leaf_hash = md(111);
    e.siblings = {md(112), md(113)};
    audit_resp.entries.push_back(std::move(e));
  }
  {
    AuditResp::Entry e;
    e.item_id = 6;
    e.leaf = 10;
    e.leaf_hash = md(114);
    audit_resp.entries.push_back(std::move(e));
  }
  f("AuditResp", audit_resp);

  f("KvPutReq", KvPutReq{1, 2, to_bytes("v")});
  f("KvGetReq", KvGetReq{1, 2});
  f("KvGetResp", KvGetResp{true, to_bytes("v")});
  f("KvDeleteReq", KvDeleteReq{1, 2});
  f("KvGetRangeReq", KvGetRangeReq{1, 5, 10});
  f("KvGetRangeResp", KvGetRangeResp{{{5, to_bytes("v5")}}, true});
  f("KvPutBatchReq",
    KvPutBatchReq{1, {{5, to_bytes("v5")}, {6, to_bytes("v6")}}});

  f("ReplAppend",
    ReplAppend{3, 41, {{42, to_bytes("frame-a")}, {43, to_bytes("frame-b")}}});
  f("ReplAck", ReplAck{3, 43, ReplAck::Code::kNeedSnapshot});
  f("ReplSnapshot", ReplSnapshot{3, 43, to_bytes("checkpoint-image"),
                                 to_bytes("dedup-table")});
  f("ReplHeartbeat", ReplHeartbeat{3, 43});
}

}  // namespace fgad::test
