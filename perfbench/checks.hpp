#pragma once
// Output checks of the repository benchmark. Each returns an empty string
// when the output is correct and a one-line description of the first
// mismatch otherwise, so a wrong answer is counted as a failed operation
// instead of a timing sample. The driver's --selftest feeds every check a
// correct and a corrupted output.

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "amr/hierarchy.hpp"
#include "compress/amr_compress.hpp"
#include "vis/mesh.hpp"

namespace perfbench {

using namespace amrvis;

/// Slack on the error bound for values rebuilt by averaging (mean-fill
/// restores covered coarse cells from decoded fine data); the same
/// relative slack the library's own round-trip tests allow.
inline constexpr double kEbSlack = 1.0000001;

/// Every finite stored cell of `decoded` lies within `abs_eb` of `original`.
inline std::string check_within_eb(const amr::AmrHierarchy& original,
                                   const amr::AmrHierarchy& decoded,
                                   double abs_eb) {
  if (original.num_levels() != decoded.num_levels())
    return "level count differs";
  for (int l = 0; l < original.num_levels(); ++l) {
    const auto& a = original.level(l).fabs;
    const auto& b = decoded.level(l).fabs;
    if (a.size() != b.size())
      return "level " + std::to_string(l) + ": patch count differs";
    for (std::size_t p = 0; p < a.size(); ++p) {
      const auto va = a[p].values();
      const auto vb = b[p].values();
      if (va.size() != vb.size() || a[p].box() != b[p].box())
        return "level " + std::to_string(l) + " patch " + std::to_string(p) +
               ": box differs";
      for (std::size_t i = 0; i < va.size(); ++i)
        if (std::isfinite(va[i]) &&
            !(std::abs(va[i] - vb[i]) <= abs_eb * kEbSlack))
          return "level " + std::to_string(l) + " patch " +
                 std::to_string(p) + " cell " + std::to_string(i) +
                 ": error exceeds abs_eb";
    }
  }
  return {};
}

/// Every patch blob of `got` is byte-identical to `ref`.
inline std::string check_same_blobs(const compress::AmrCompressed& ref,
                                    const compress::AmrCompressed& got) {
  if (ref.levels.size() != got.levels.size()) return "level count differs";
  for (std::size_t l = 0; l < ref.levels.size(); ++l) {
    const auto& a = ref.levels[l].patches;
    const auto& b = got.levels[l].patches;
    if (a.size() != b.size())
      return "level " + std::to_string(l) + ": patch count differs";
    for (std::size_t p = 0; p < a.size(); ++p)
      if (a[p].blob != b[p].blob)
        return "level " + std::to_string(l) + " patch " + std::to_string(p) +
               ": blob differs";
  }
  return {};
}

/// Same vertices (bitwise), same triangles, same order.
inline std::string check_same_mesh(const vis::TriMesh& ref,
                                   const vis::TriMesh& got) {
  if (ref.vertices.size() != got.vertices.size())
    return "vertex count differs";
  if (ref.triangles.size() != got.triangles.size())
    return "triangle count differs";
  for (std::size_t i = 0; i < ref.vertices.size(); ++i) {
    const vis::Vec3& a = ref.vertices[i];
    const vis::Vec3& b = got.vertices[i];
    if (std::memcmp(&a.x, &b.x, sizeof(double)) != 0 ||
        std::memcmp(&a.y, &b.y, sizeof(double)) != 0 ||
        std::memcmp(&a.z, &b.z, sizeof(double)) != 0)
      return "vertex " + std::to_string(i) + " differs";
  }
  for (std::size_t i = 0; i < ref.triangles.size(); ++i)
    if (ref.triangles[i].v != got.triangles[i].v ||
        ref.triangles[i].level != got.triangles[i].level)
      return "triangle " + std::to_string(i) + " differs";
  return {};
}

/// A point response equals the composite value at finest-space cell `p`.
inline std::string check_point(const Array3<double>& composite,
                               const amr::Box& finest, amr::IntVect p,
                               double got) {
  const double want =
      composite(p.x - finest.lo().x, p.y - finest.lo().y, p.z - finest.lo().z);
  if (std::memcmp(&want, &got, sizeof(double)) != 0)
    return "point value differs";
  return {};
}

/// A plane response equals the composite's slice `index` along `axis`.
inline std::string check_plane(const Array3<double>& composite,
                               const amr::Box& finest, int axis,
                               std::int64_t index,
                               const Array3<double>& slice) {
  const Shape3 cs = composite.shape();
  Shape3 want = cs;
  (axis == 0 ? want.nx : axis == 1 ? want.ny : want.nz) = 1;
  if (!(slice.shape() == want)) return "plane shape differs";
  const std::int64_t off = index - (axis == 0   ? finest.lo().x
                                    : axis == 1 ? finest.lo().y
                                                : finest.lo().z);
  for (std::int64_t k = 0; k < want.nz; ++k)
    for (std::int64_t j = 0; j < want.ny; ++j)
      for (std::int64_t i = 0; i < want.nx; ++i) {
        const double a = composite(axis == 0 ? off : i, axis == 1 ? off : j,
                                   axis == 2 ? off : k);
        const double b = slice(i, j, k);
        if (std::memcmp(&a, &b, sizeof(double)) != 0)
          return "plane cell differs";
      }
  return {};
}

/// A region response holds exactly the stored cells of `level` inside
/// `region`, patch by patch, with the values of the decoded hierarchy.
inline std::string check_region(const amr::AmrHierarchy& decoded, int level,
                                const amr::Box& region,
                                const std::vector<compress::RegionPatch>& got) {
  const auto& fabs = decoded.level(level).fabs;
  std::size_t next = 0;
  for (std::size_t p = 0; p < fabs.size(); ++p) {
    const auto cut = fabs[p].box().intersect(region);
    if (!cut) continue;
    if (next >= got.size() || got[next].patch != p || got[next].box != *cut)
      return "region patch list differs";
    const auto& data = got[next].data;
    if (!(data.shape() == cut->shape())) return "region patch shape differs";
    const amr::IntVect lo = cut->lo();
    for (std::int64_t k = 0; k < data.shape().nz; ++k)
      for (std::int64_t j = 0; j < data.shape().ny; ++j)
        for (std::int64_t i = 0; i < data.shape().nx; ++i) {
          const double a = fabs[p].at({lo.x + i, lo.y + j, lo.z + k});
          const double b = data(i, j, k);
          if (std::memcmp(&a, &b, sizeof(double)) != 0)
            return "region cell differs";
        }
    ++next;
  }
  if (next != got.size()) return "region patch list differs";
  return {};
}

}  // namespace perfbench
