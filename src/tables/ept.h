// EPT and EPT* -- Extreme Pivot Tables (Ruiz et al. [24]; Section 3.2).
//
// Unlike LAESA, EPT assigns *different* pivots to different objects: l
// pivot groups of m random pivots each; an object keeps, per group, the
// pivot maximizing |d(o,p) - mu_p| (the deviation from that pivot's mean
// distance), which maximizes the chance the stored distance prunes.
//
// EPT* is the paper's improvement: the Pivot Selection Algorithm (PSA,
// Algorithm 1) draws candidate pivots from HF outliers (cp_scale = 40) and
// per object greedily selects the l candidates maximizing the mean
// lower-bound ratio D(o,s)/d(o,s) over a fixed object sample S.
//
// Implementation note (documented in DESIGN.md Section 3): PSA memoizes
// the |S| x |CP| candidate-sample distance matrix and each object's |CP|
// candidate distances, so EPT*'s construction compdists exceed EPT's by a
// factor of ~(|CP|+|S|)/(m*l) rather than the paper's ~1000x naive
// recomputation; the ordering (EPT* costliest to build, cheapest to
// query) is preserved.
//
// The queries and deletion are the scan-table engine shared with LAESA
// (src/tables/scan_table.h) over the table's per-row-pivot layout; EPT
// supplies the pivot pool, the per-object pivot selection, and maps a
// query to its distances to every pool pivot.

#ifndef PMI_TABLES_EPT_H_
#define PMI_TABLES_EPT_H_

#include <vector>

#include "src/core/pivots.h"
#include "src/tables/psa.h"
#include "src/tables/scan_table.h"

namespace pmi {

/// Extreme pivot table; variant selects classic EPT or EPT*.  table()
/// holds rows x l (pool index, pre-computed distance) pairs in the
/// per-row-pivot layout (see src/core/pivot_table.h).
class Ept final : public ScanTableIndex {
 public:
  enum class Variant { kClassic, kStar };

  explicit Ept(Variant variant, IndexOptions options = {})
      : ScanTableIndex(options), variant_(variant) {}

  std::string name() const override {
    return variant_ == Variant::kClassic ? "EPT" : "EPT*";
  }
  bool disk_based() const override { return false; }
  std::unique_ptr<MetricIndex> Clone() const override;
  size_t memory_bytes() const override;
  void MapQuery(const ObjectView& q, const DistanceComputer& d,
                std::vector<double>* out) const override;

  /// Group size m actually used (after Equation (1) estimation).
  uint32_t group_size() const { return m_; }

 protected:
  void BuildImpl() override;
  void InsertImpl(ObjectId id) override;
  Status SaveImpl(ByteSink* out) const override;
  Status LoadImpl(ByteSource* in) override;

 private:
  void EstimateGroupSize();
  void EstimateMus();
  /// Selects the l (pool index, distance) pairs of one row.  Distances go
  /// through `d`, which the parallel build binds to a per-thread counter
  /// shard; the selection reads only build-time-constant state
  /// (pool_/pool_mu_/psa_), so concurrent calls on distinct ids are safe
  /// and the row contents are independent of thread count.
  void ComputeRow(ObjectId id, const DistanceComputer& d, uint32_t* pidx,
                  double* pdist) const;
  void SelectClassic(ObjectId id, const DistanceComputer& d, uint32_t* pidx,
                     double* pdist) const;
  void SelectStar(ObjectId id, const DistanceComputer& d, uint32_t* pidx,
                  double* pdist) const;
  void AppendRow(ObjectId id);

  Variant variant_;
  uint32_t l_ = 0;  // pivots per object (= |P| of the shared setting)
  uint32_t m_ = 0;  // group size (classic)

  PivotSet pool_;                // classic: m*l random pivots
  std::vector<double> pool_mu_;  // classic: estimated E[d(o, p)] per pivot
  PsaSelector psa_;              // star: shared Algorithm-1 machinery

  /// The pivot pool queries map against (classic's own or PSA's).
  const PivotSet& query_pool() const {
    return variant_ == Variant::kClassic ? pool_ : psa_.pool();
  }

  std::vector<uint32_t> row_pidx_;  // AppendRow (serial insert) scratch
  std::vector<double> row_pdist_;
};

}  // namespace pmi

#endif  // PMI_TABLES_EPT_H_
