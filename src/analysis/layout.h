// proveLayout — the object-inlining AoS→SoA data-layout pass (seventh
// analysis pass; ROADMAP item 1, the paper's abstraction-penalty claim
// pushed one level further).
//
// For every class used as an array element anywhere in the program, decide
// whether an array `C[]` can be legally stored as parallel per-field arrays
// (structure-of-arrays) instead of an array of structs:
//
//   * structure — every instance field of C is primitive, C is a leaf
//     (no subclasses: the element type must be exact) and not an interface;
//   * access discipline — every `a[i]` whose element type is C is consumed
//     IMMEDIATELY by a field read (`a[i].f`). An element that is bound to a
//     local, passed as an argument, returned, cast, stored into another
//     array slot or field, compared with ==/!=, or used as a call receiver
//     has escaped: its address (or its whole-struct identity) becomes
//     observable, which a split layout cannot preserve;
//   * stores — every `a[i] = v` into a `C[]` must store a freshly
//     constructed `new C(...)`; a whole-object copy of an existing element
//     would observe struct identity.
//
// Verdicts join across every method and call context (one bad use anywhere
// boxes the class — the layout of an allocation site must be a whole-
// program property because arrays flow freely between methods). The entry
// driver additionally boxes classes whose arrays cross the jit() boundary
// (invoke() marshals AoS payloads); the lint driver has no boundary, so a
// clean class is CondInline: inline-eligible provided no boundary crossing.
//
// The translator consumes Inline verdicts under the soa option (see
// jit/codegen.cpp); the vector prover consumes Inline/CondInline to flip
// gather-bound element loops to unit-stride Vectorizable.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ir/program.h"
#include "ir/type.h"

namespace wj::analysis {

enum class LayoutVerdict {
    Inline,      ///< all uses field-path-only; SoA split is observationally safe
    CondInline,  ///< lint verdict: safe provided no C[] crosses the jit() boundary
    Boxed,       ///< an escaping / identity-observing use exists — `reason` names it
};

/// One primitive field of an SoA-split class, with its packed region offset:
/// field k's lane array starts at data + len * pre bytes. Fields are ordered
/// by descending element size (then declaration order), so every region is
/// naturally aligned for any len.
struct SoaField {
    std::string name;
    Prim prim = Prim::F32;
    int32_t pre = 0;  ///< packed byte offset factor: region = data + len*pre
};

struct ClassLayout {
    LayoutVerdict verdict = LayoutVerdict::Boxed;
    std::string reason;
    std::vector<SoaField> fields;  ///< empty unless Inline/CondInline
    int32_t elemSize = 0;          ///< packed per-element byte count (sum of prim sizes)
};

/// Runs the pass over every @WootinJ method and constructor. `boundary`
/// names classes whose arrays cross the jit() boundary in the analyzed
/// entry's receiver graph or arguments (always Boxed); pass an empty set
/// from lint. `lint` selects the CondInline presentation for clean classes.
/// The returned map has one entry per class used as an array element.
std::map<std::string, ClassLayout> proveLayout(const Program& prog,
                                               const std::set<std::string>& boundary,
                                               bool lint);

} // namespace wj::analysis
