// Property tests for the packed TransactionId: randomized equivalence
// against a plain std::vector reference implementation (exercising paths
// deeper than the inline capacity, so both storage regimes and the
// inline/heap boundary are covered), plus heap-allocation accounting for
// the hot operations the lock manager leans on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <sstream>
#include <vector>

#include "tx/transaction_id.h"
#include "util/random.h"

// Global new/delete overrides counting every heap allocation in the test
// binary. Used to assert the packed id's zero-allocation guarantee at
// depths within the inline capacity (and, as a control, that the counter
// actually sees the spill allocation past it).
namespace {
thread_local size_t g_alloc_count = 0;
}  // namespace

void* operator new(size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace nestedtx {
namespace {

// Reference semantics: a transaction id is literally its path vector.
// Each operation is the obvious vector manipulation from the paper's
// definition (§3), with no packing, caching, or other cleverness.
struct RefId {
  std::vector<uint32_t> path;

  RefId Child(uint32_t i) const {
    RefId c = *this;
    c.path.push_back(i);
    return c;
  }
  RefId Parent() const {
    RefId p = *this;
    p.path.pop_back();
    return p;
  }
  bool IsAncestorOf(const RefId& o) const {
    return path.size() <= o.path.size() &&
           std::equal(path.begin(), path.end(), o.path.begin());
  }
  RefId Lca(const RefId& o) const {
    RefId out;
    for (size_t i = 0; i < path.size() && i < o.path.size() &&
                       path[i] == o.path[i];
         ++i) {
      out.path.push_back(path[i]);
    }
    return out;
  }
  RefId ChildOfAncestorToward(const RefId& ancestor) const {
    RefId out = ancestor;
    out.path.push_back(path[ancestor.path.size()]);
    return out;
  }
  bool operator==(const RefId& o) const { return path == o.path; }
  bool operator<(const RefId& o) const { return path < o.path; }
  std::string ToString() const {
    std::ostringstream oss;
    oss << "T0";
    for (uint32_t e : path) oss << "." << e;
    return oss.str();
  }
};

RefId ToRef(const TransactionId& id) { return RefId{id.PathVector()}; }
TransactionId FromRef(const RefId& id) { return TransactionId(id.path); }

// A random path; depths are drawn across the inline/heap boundary
// (kInlineDepth = 12) with small child indices so that prefix collisions
// (ancestor relations) actually happen.
RefId RandomRef(Rng& rng, size_t max_depth) {
  RefId id;
  const size_t depth = rng.Uniform(max_depth + 1);
  for (size_t i = 0; i < depth; ++i) {
    id.path.push_back(static_cast<uint32_t>(rng.Uniform(3)));
  }
  return id;
}

constexpr size_t kMaxDepth = TransactionId::kInlineDepth * 2 + 6;

TEST(TransactionIdPropertyTest, MatchesReferenceOnRandomPaths) {
  Rng rng(20260806);
  for (int trial = 0; trial < 2000; ++trial) {
    const RefId ra = RandomRef(rng, kMaxDepth);
    const RefId rb = RandomRef(rng, kMaxDepth);
    const TransactionId a = FromRef(ra);
    const TransactionId b = FromRef(rb);

    ASSERT_EQ(a.Depth(), ra.path.size());
    ASSERT_EQ(a.PathVector(), ra.path);
    ASSERT_EQ(a.ToString(), ra.ToString());
    ASSERT_EQ(a == b, ra == rb);
    ASSERT_EQ(a < b, ra < rb);
    ASSERT_EQ(b < a, rb < ra);
    ASSERT_EQ(a.IsAncestorOf(b), ra.IsAncestorOf(rb));
    ASSERT_EQ(b.IsAncestorOf(a), rb.IsAncestorOf(ra));
    ASSERT_EQ(a.IsDescendantOf(b), rb.IsAncestorOf(ra));
    ASSERT_EQ(a.Lca(b).PathVector(), ra.Lca(rb).path);
    ASSERT_EQ(b.Lca(a).PathVector(), rb.Lca(ra).path);

    const uint32_t child_index = static_cast<uint32_t>(rng.Uniform(5));
    ASSERT_EQ(a.Child(child_index).PathVector(),
              ra.Child(child_index).path);
    if (!a.IsRoot()) {
      ASSERT_EQ(a.Parent().PathVector(), ra.Parent().path);
      ASSERT_EQ(a.back(), ra.path.back());
    }
    const TransactionId lca = a.Lca(b);
    if (lca.IsProperAncestorOf(a)) {
      ASSERT_EQ(a.ChildOfAncestorToward(lca).PathVector(),
                ToRef(a).ChildOfAncestorToward(ToRef(lca)).path);
    }
  }
}

TEST(TransactionIdPropertyTest, HashAgreesAcrossConstructionRoutes) {
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    const RefId ref = RandomRef(rng, kMaxDepth);
    // Route 1: bulk construction from the path vector.
    const TransactionId bulk = FromRef(ref);
    // Route 2: incremental Child() chain from the root (the cached-hash
    // extension path).
    TransactionId chained = TransactionId::Root();
    for (uint32_t e : ref.path) chained = chained.Child(e);
    ASSERT_EQ(bulk, chained);
    ASSERT_EQ(bulk.Hash(), chained.Hash());
    // Route 3: Parent() of a child returns to the same hash.
    ASSERT_EQ(chained.Child(9).Parent().Hash(), bulk.Hash());
  }
}

TEST(TransactionIdPropertyTest, EqualityImpliesEqualHash) {
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    const TransactionId a = FromRef(RandomRef(rng, kMaxDepth));
    const TransactionId b = FromRef(RandomRef(rng, kMaxDepth));
    if (a == b) {
      ASSERT_EQ(a.Hash(), b.Hash());
    }
    TransactionId copy = a;
    ASSERT_EQ(copy, a);
    ASSERT_EQ(copy.Hash(), a.Hash());
  }
}

TEST(TransactionIdPropertyTest, OrderingIsStrictWeakAndPreOrder) {
  Rng rng(1234);
  std::vector<TransactionId> ids;
  for (int i = 0; i < 200; ++i) ids.push_back(FromRef(RandomRef(rng, kMaxDepth)));
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i + 1 < ids.size(); ++i) {
    ASSERT_FALSE(ids[i + 1] < ids[i]);
    // An ancestor sorts no later than its descendant (pre-order).
    if (ids[i + 1].IsAncestorOf(ids[i])) {
      ASSERT_EQ(ids[i], ids[i + 1]);
    }
  }
}

// The zero-allocation guarantee the lock manager's hot path relies on:
// within the inline capacity, constructing, copying, comparing, hashing
// and walking ids never touches the heap.
TEST(TransactionIdAllocTest, NoHeapAllocationsUpToInlineDepth) {
  // Build a chain to the full inline depth, then exercise every hot
  // operation inside the counted region.
  TransactionId deep = TransactionId::Root();
  for (size_t d = 0; d < TransactionId::kInlineDepth - 1; ++d) {
    deep = deep.Child(static_cast<uint32_t>(d));
  }
  const TransactionId other = TransactionId::Root().Child(0).Child(7);

  const size_t before = g_alloc_count;
  TransactionId child = deep.Child(41);  // lands exactly at kInlineDepth
  TransactionId copy = child;
  TransactionId parent = child.Parent();
  TransactionId lca = child.Lca(other);
  bool anc = other.IsAncestorOf(child);
  anc = anc | child.IsAncestorOf(other);
  bool lt = child < other;
  bool eq = copy == child;
  size_t h = child.Hash();
  TransactionId toward = child.ChildOfAncestorToward(parent);
  const size_t after = g_alloc_count;

  EXPECT_EQ(after - before, 0u)
      << "hot-path TransactionId ops allocated on the heap";
  // Keep the results alive / observable.
  EXPECT_EQ(child.Depth(), TransactionId::kInlineDepth);
  EXPECT_EQ(toward, child);
  EXPECT_TRUE(eq);
  EXPECT_FALSE(anc);
  EXPECT_TRUE(lt || !lt);
  EXPECT_NE(h, 0u);
  EXPECT_EQ(lca, TransactionId::Root().Child(0));
}

// Control: the counter does observe the spill allocation one past the
// inline capacity (otherwise the test above proves nothing).
TEST(TransactionIdAllocTest, SpillPastInlineDepthAllocates) {
  TransactionId deep = TransactionId::Root();
  for (size_t d = 0; d < TransactionId::kInlineDepth; ++d) {
    deep = deep.Child(static_cast<uint32_t>(d));
  }
  const size_t before = g_alloc_count;
  TransactionId spilled = deep.Child(1);  // kInlineDepth + 1: heap array
  const size_t after = g_alloc_count;
  EXPECT_GE(after - before, 1u);
  EXPECT_EQ(spilled.Depth(), TransactionId::kInlineDepth + 1);
  EXPECT_TRUE(deep.IsProperAncestorOf(spilled));
}

}  // namespace
}  // namespace nestedtx
