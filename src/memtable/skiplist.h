// SkipList: ordered in-memory index backing the memtable (the paper's
// Level-0 buffer). Arena-allocated; nodes are never removed until the
// whole arena is dropped at flush time.
//
// Concurrency: one writer (externally serialized, the engine's group-commit
// leader), any number of readers. This is the classic LevelDB scheme: node
// links are published with store(release) and traversed with
// load(acquire), so a reader that observes a link observes a fully
// initialized node. Get/iterators need no locking.

#ifndef MONKEYDB_MEMTABLE_SKIPLIST_H_
#define MONKEYDB_MEMTABLE_SKIPLIST_H_

#include <atomic>
#include <cassert>
#include <cstdint>

#include "util/arena.h"
#include "util/random.h"

namespace monkeydb {

// Key is trivially copyable (we use const char*). Cmp provides
// int operator()(Key a, Key b) with <0/==0/>0 semantics.
template <typename Key, class Cmp>
class SkipList {
 public:
  SkipList(Cmp cmp, Arena* arena)
      : compare_(cmp),
        arena_(arena),
        head_(NewNode(0 /*ignored head key*/, kMaxHeight)),
        max_height_(1),
        rnd_(0xdeadbeef) {
    for (int i = 0; i < kMaxHeight; i++) head_->SetNext(i, nullptr);
  }

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  // Inserts key. REQUIRES: no equal key is already present, and external
  // synchronization among writers (the engine's writer lock).
  void Insert(const Key& key) {
    Node* prev[kMaxHeight];
    Node* x = FindGreaterOrEqual(key, prev);
    assert(x == nullptr || compare_(key, x->key) != 0);

    const int height = RandomHeight();
    if (height > GetMaxHeight()) {
      for (int i = GetMaxHeight(); i < height; i++) prev[i] = head_;
      // Concurrent readers observing the new height before the new node is
      // linked just fall through head_'s null links at the upper levels.
      max_height_.store(height, std::memory_order_relaxed);
    }

    x = NewNode(key, height);
    for (int i = 0; i < height; i++) {
      // The node is published level by level; NoBarrier is fine for the new
      // node's own links because the release store in SetNext below
      // publishes them together with the node's contents.
      x->NoBarrierSetNext(i, prev[i]->NoBarrierNext(i));
      prev[i]->SetNext(i, x);
    }
  }

  bool Contains(const Key& key) const {
    Node* x = FindGreaterOrEqual(key, nullptr);
    return x != nullptr && compare_(key, x->key) == 0;
  }

  class Iterator {
   public:
    explicit Iterator(const SkipList* list) : list_(list), node_(nullptr) {}

    bool Valid() const { return node_ != nullptr; }

    const Key& key() const {
      assert(Valid());
      return node_->key;
    }

    void Next() {
      assert(Valid());
      node_ = node_->Next(0);
    }

    void Prev() {
      assert(Valid());
      node_ = list_->FindLessThan(node_->key);
      if (node_ == list_->head_) node_ = nullptr;
    }

    void Seek(const Key& target) {
      node_ = list_->FindGreaterOrEqual(target, nullptr);
    }

    void SeekToFirst() { node_ = list_->head_->Next(0); }

    void SeekToLast() {
      node_ = list_->FindLast();
      if (node_ == list_->head_) node_ = nullptr;
    }

   private:
    const SkipList* list_;
    const typename SkipList::Node* node_;
  };

 private:
  static constexpr int kMaxHeight = 12;
  static constexpr int kBranching = 4;

  struct Node {
    explicit Node(const Key& k) : key(k) {}

    const Key key;

    Node* Next(int n) const {
      assert(n >= 0);
      return next_[n].load(std::memory_order_acquire);
    }
    void SetNext(int n, Node* x) {
      assert(n >= 0);
      next_[n].store(x, std::memory_order_release);
    }
    // Writer-only variants (no fences needed under the writer lock).
    Node* NoBarrierNext(int n) const {
      return next_[n].load(std::memory_order_relaxed);
    }
    void NoBarrierSetNext(int n, Node* x) {
      next_[n].store(x, std::memory_order_relaxed);
    }

   private:
    // Length of this array equals the node height; allocated inline.
    std::atomic<Node*> next_[1];
  };

  int GetMaxHeight() const {
    return max_height_.load(std::memory_order_relaxed);
  }

  Node* NewNode(const Key& key, int height) {
    char* mem = arena_->AllocateAligned(
        sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1));
    return new (mem) Node(key);
  }

  int RandomHeight() {
    int height = 1;
    while (height < kMaxHeight && rnd_.Uniform(kBranching) == 0) height++;
    return height;
  }

  // Returns the first node >= key; fills prev[] with predecessors per level
  // when prev != nullptr.
  Node* FindGreaterOrEqual(const Key& key, Node** prev) const {
    Node* x = head_;
    int level = GetMaxHeight() - 1;
    while (true) {
      Node* next = x->Next(level);
      if (next != nullptr && compare_(next->key, key) < 0) {
        x = next;
      } else {
        if (prev != nullptr) prev[level] = x;
        if (level == 0) return next;
        level--;
      }
    }
  }

  // Returns the last node < key (head_ if none).
  Node* FindLessThan(const Key& key) const {
    Node* x = head_;
    int level = GetMaxHeight() - 1;
    while (true) {
      Node* next = x->Next(level);
      if (next != nullptr && compare_(next->key, key) < 0) {
        x = next;
      } else {
        if (level == 0) return x;
        level--;
      }
    }
  }

  Node* FindLast() const {
    Node* x = head_;
    int level = GetMaxHeight() - 1;
    while (true) {
      Node* next = x->Next(level);
      if (next != nullptr) {
        x = next;
      } else {
        if (level == 0) return x;
        level--;
      }
    }
  }

  Cmp const compare_;
  Arena* const arena_;
  Node* const head_;
  std::atomic<int> max_height_;
  Random rnd_;
};

}  // namespace monkeydb

#endif  // MONKEYDB_MEMTABLE_SKIPLIST_H_
