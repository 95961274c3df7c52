#include "integrity/audit.h"

#include <map>
#include <set>

namespace fgad::integrity {

namespace proto = fgad::proto;
using core::depth_of;
using core::parent_of;
using core::sibling_of;
using proto::MsgType;

Auditor::Auditor(net::RpcChannel& channel, crypto::HashAlg alg,
                 std::uint64_t file_id)
    : channel_(channel),
      hasher_(alg),
      file_id_(file_id),
      root_(Md::zero(crypto::digest_size(alg))) {}

void Auditor::init_from_items(
    std::span<const std::pair<std::uint64_t, BytesView>> items) {
  std::vector<Md> hashes;
  hashes.reserve(items.size());
  for (const auto& [id, ct] : items) {
    hashes.push_back(leaf_hash(hasher_, id, ct));
  }
  init_from_leaf_hashes(hashes);
}

void Auditor::init_from_leaf_hashes(std::span<const Md> leaf_hashes) {
  HashTree tree(hasher_.alg());
  tree.build(leaf_hashes);
  root_ = tree.root();
  nodes_ = tree.node_count();
}

Result<std::vector<Auditor::VerifiedEntry>> Auditor::query(
    bool by_leaf, std::span<const std::uint64_t> targets, bool include_ct,
    std::vector<Bytes>* cts_out) {
  proto::AuditReq req;
  req.file_id = file_id_;
  req.by_leaf = by_leaf;
  req.include_ciphertext = include_ct;
  req.targets.assign(targets.begin(), targets.end());

  auto payload = net::call(channel_, req.to_frame(), MsgType::kAuditResp);
  if (!payload) {
    return payload.error();
  }
  proto::Reader r(payload.value());
  auto resp = proto::AuditResp::from(r);
  if (!resp) {
    return resp.error();
  }
  if (resp.value().entries.size() != targets.size()) {
    return Error(Errc::kTamperDetected, "audit: wrong entry count");
  }

  std::vector<VerifiedEntry> out;
  out.reserve(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    auto& e = resp.value().entries[i];
    // Positional binding: the entry must answer the target we asked about.
    if (by_leaf ? (e.leaf != targets[i]) : (e.item_id != targets[i])) {
      return Error(Errc::kTamperDetected, "audit: entry/target mismatch");
    }
    if (e.leaf >= nodes_ || !core::is_leaf_in(e.leaf, nodes_)) {
      return Error(Errc::kTamperDetected, "audit: leaf out of range");
    }
    MerkleProof proof{e.leaf, e.siblings};
    if (!verify_proof(hasher_, root_, e.leaf_hash, proof)) {
      return Error(Errc::kTamperDetected, "audit: membership proof invalid");
    }
    if (include_ct) {
      if (!e.has_ciphertext ||
          leaf_hash(hasher_, e.item_id, e.ciphertext) != e.leaf_hash) {
        return Error(Errc::kTamperDetected,
                     "audit: ciphertext does not match committed hash");
      }
      if (cts_out != nullptr) {
        cts_out->push_back(std::move(e.ciphertext));
      }
    }
    out.push_back(VerifiedEntry{e.item_id, e.leaf, e.leaf_hash,
                                std::move(e.siblings)});
  }
  return out;
}

Status Auditor::audit_items(std::span<const std::uint64_t> ids) {
  return query(/*by_leaf=*/false, ids, /*include_ct=*/true, nullptr).status();
}

Status Auditor::audit_random(std::size_t k, crypto::RandomSource& rnd) {
  const std::size_t n = leaf_count();
  if (n == 0) {
    return Status::ok();
  }
  const std::size_t first_leaf = n - 1;
  std::vector<std::uint64_t> leaves;
  leaves.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    leaves.push_back(first_leaf + rnd.random_u64() % n);
  }
  return query(/*by_leaf=*/true, leaves, /*include_ct=*/true, nullptr)
      .status();
}

Result<Bytes> Auditor::fetch_verified(std::uint64_t item_id) {
  std::vector<Bytes> cts;
  const std::uint64_t ids[] = {item_id};
  auto entries = query(/*by_leaf=*/false, ids, /*include_ct=*/true, &cts);
  if (!entries) {
    return entries.error();
  }
  return std::move(cts[0]);
}

Status Auditor::before_modify(std::uint64_t item_id,
                              BytesView new_ciphertext) {
  const std::uint64_t ids[] = {item_id};
  auto entries = query(false, ids, false, nullptr);
  if (!entries) {
    return entries.status();
  }
  const VerifiedEntry& e = entries.value()[0];
  root_ = fold_proof(hasher_, e.leaf,
                     leaf_hash(hasher_, item_id, new_ciphertext), e.siblings);
  return Status::ok();
}

Status Auditor::before_insert(std::uint64_t new_item_id,
                              BytesView new_ciphertext) {
  const Md new_h = leaf_hash(hasher_, new_item_id, new_ciphertext);
  if (nodes_ == 0) {
    root_ = new_h;
    nodes_ = 1;
    return Status::ok();
  }
  const NodeId q = static_cast<NodeId>((nodes_ - 1) / 2);
  const std::uint64_t leaves[] = {q};
  auto entries = query(true, leaves, false, nullptr);
  if (!entries) {
    return entries.status();
  }
  const VerifiedEntry& e = entries.value()[0];
  // q becomes internal over (old q hash, new leaf hash); its root path
  // siblings are unchanged.
  const Md q_internal = internal_hash(hasher_, e.leaf_hash, new_h);
  root_ = fold_proof(hasher_, q, q_internal, e.siblings);
  nodes_ += 2;
  return Status::ok();
}

Status Auditor::before_delete(std::uint64_t item_id) {
  if (nodes_ == 0) {
    return Status(Errc::kNotFound, "audit: empty file");
  }
  // Locate the victim leaf.
  const std::uint64_t ids[] = {item_id};
  auto victim = query(false, ids, false, nullptr);
  if (!victim) {
    return victim.status();
  }
  const NodeId d = victim.value()[0].leaf;

  if (nodes_ == 1) {
    root_ = Md::zero(hasher_.size());
    nodes_ = 0;
    return Status::ok();
  }

  const NodeId last = static_cast<NodeId>(nodes_ - 1);
  const NodeId p_slot = parent_of(last);

  if (d == last || d == last - 1) {
    // Survivor is promoted into the parent slot; its old proof's first
    // sibling was the deleted leaf, the rest is exactly the parent's path.
    const NodeId survivor = (d == last) ? last - 1 : last;
    const std::uint64_t leaves[] = {survivor};
    auto entries = query(true, leaves, false, nullptr);
    if (!entries) {
      return entries.status();
    }
    const VerifiedEntry& s = entries.value()[0];
    root_ = fold_proof(
        hasher_, p_slot, s.leaf_hash,
        std::span<const Md>(s.siblings.data() + 1, s.siblings.size() - 1));
    nodes_ -= 2;
    return Status::ok();
  }

  // General case: s = last-1 promotes into p_slot, t = last re-homes into
  // d's slot. Verify all three proofs, then re-evaluate the root over the
  // union of the two changed paths using only verified sibling hashes.
  const std::uint64_t leaves[] = {d, last - 1, last};
  auto entries = query(true, leaves, false, nullptr);
  if (!entries) {
    return entries.status();
  }
  const VerifiedEntry& ed = entries.value()[0];
  const VerifiedEntry& es = entries.value()[1];
  const VerifiedEntry& et = entries.value()[2];
  if (ed.item_id != item_id) {
    return Status(Errc::kTamperDetected, "audit: victim leaf re-bound");
  }

  // Old sibling hashes harvested from the verified proofs.
  std::map<NodeId, Md> old_sib;
  const auto harvest = [&](const VerifiedEntry& e) {
    NodeId v = e.leaf;
    old_sib.emplace(v, e.leaf_hash);
    for (const Md& s : e.siblings) {
      old_sib.emplace(sibling_of(v), s);
      v = parent_of(v);
    }
  };
  harvest(ed);
  harvest(es);
  harvest(et);

  // New values at the two changed slots (tree shrinks by 2 first).
  std::map<NodeId, Md> fresh;
  fresh[p_slot] = es.leaf_hash;  // s promoted
  fresh[d] = et.leaf_hash;       // t re-homed
  std::set<NodeId, std::greater<NodeId>> pending{p_slot, d};
  while (!pending.empty()) {
    const NodeId u = *pending.begin();
    pending.erase(pending.begin());
    if (core::is_root(u)) {
      root_ = fresh[u];
      nodes_ -= 2;
      return Status::ok();
    }
    const NodeId sib = sibling_of(u);
    pending.erase(sib);  // if both children changed, combine them once
    const Md* sib_val = nullptr;
    if (auto it = fresh.find(sib); it != fresh.end()) {
      sib_val = &it->second;
    } else if (auto it2 = old_sib.find(sib); it2 != old_sib.end()) {
      sib_val = &it2->second;
    } else {
      return Status(Errc::kTamperDetected,
                    "audit: proof coverage incomplete");
    }
    const NodeId p = parent_of(u);
    fresh[p] = (u % 2 == 1) ? internal_hash(hasher_, fresh[u], *sib_val)
                            : internal_hash(hasher_, *sib_val, fresh[u]);
    pending.insert(p);
  }
  return Status(Errc::kTamperDetected, "audit: root evaluation failed");
}

}  // namespace fgad::integrity
