// Owning child list for the in-memory trees, whose copy is a deep copy.
//
// BKT, FQT, MVPT and the M-index cluster tree all own their children
// through a vector of unique_ptrs (null = empty slot).  Holding the kids
// in a ChildVector makes such a node copyable with its implicit copy
// constructor, which copies the node's own fields and recurses into
// every child -- so cloning a whole tree is `make_unique<Node>(*root)`,
// one recursion for every tree shape.

#ifndef PMI_CORE_CHILD_VECTOR_H_
#define PMI_CORE_CHILD_VECTOR_H_

#include <memory>
#include <vector>

namespace pmi {

template <typename Node>
class ChildVector : public std::vector<std::unique_ptr<Node>> {
  using Base = std::vector<std::unique_ptr<Node>>;

 public:
  ChildVector() = default;
  ChildVector(ChildVector&&) noexcept = default;
  ChildVector& operator=(ChildVector&&) noexcept = default;

  ChildVector(const ChildVector& o) : Base() {
    this->reserve(o.size());
    for (const std::unique_ptr<Node>& kid : o) {
      this->push_back(kid ? std::make_unique<Node>(*kid) : nullptr);
    }
  }

  ChildVector& operator=(const ChildVector& o) {
    if (this != &o) *this = ChildVector(o);
    return *this;
  }
};

}  // namespace pmi

#endif  // PMI_CORE_CHILD_VECTOR_H_
