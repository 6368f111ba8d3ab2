#ifndef AIRINDEX_CORE_SPQ_WIRE_H_
#define AIRINDEX_CORE_SPQ_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "algo/spq.h"

namespace airindex::core {

/// SPQ's on-air quadtree encoding: cells in pre-order, self-delimiting.
/// Tag 0 is a leaf (its colour, u16, follows; 0xFFFF = no colour); any
/// other tag is an internal cell (its four child subtrees follow).
void EncodeSpqTree(const algo::SpqIndex::Tree& tree,
                   std::vector<uint8_t>* out);

/// Decodes the tree at `*pos`, appending its cells to `tree->nodes` (root
/// first, so clear them for a fresh tree) and advancing `*pos`. Returns
/// false when `buf` ends inside the tree.
bool DecodeSpqTree(const std::vector<uint8_t>& buf, size_t* pos,
                   algo::SpqIndex::Tree* tree);

/// Reads past the tree at `*pos` without building it: returns the number
/// of cells DecodeSpqTree would append, or 0 when `buf` ends inside the
/// tree. Either way `*pos` ends where DecodeSpqTree's would.
size_t SkimSpqTree(const std::vector<uint8_t>& buf, size_t* pos);

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_SPQ_WIRE_H_
