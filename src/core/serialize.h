// Byte-level serialization substrate for index snapshots.
//
// A ByteSink appends fixed-width little-endian primitives to a growing
// byte string; a ByteSource is its bounds-checked reading cursor, whose
// getters return Status instead of crashing so a truncated or corrupt
// snapshot file surfaces as kDataLoss at the facade, never as UB deep in
// an index loader.  On the (little-endian) platforms this library
// targets, primitive writes are straight memcpys.
//
// Free helpers serialize the core value types (Dataset, PivotSet,
// PivotTable) through their public APIs so the snapshot format has no
// privileged access to their internals.

#ifndef PMI_CORE_SERIALIZE_H_
#define PMI_CORE_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/dataset.h"
#include "src/core/pivot_table.h"
#include "src/core/pivots.h"
#include "src/core/status.h"

namespace pmi {

/// Append-only byte buffer with primitive encoders.
class ByteSink {
 public:
  void PutU8(uint8_t v) { Raw(&v, 1); }
  void PutU32(uint32_t v) { Raw(&v, 4); }
  void PutU64(uint64_t v) { Raw(&v, 8); }
  void PutDouble(double v) { Raw(&v, 8); }
  void PutFloat(float v) { Raw(&v, 4); }

  /// Length-prefixed byte string.
  void PutString(std::string_view s) {
    PutU64(s.size());
    bytes_.append(s.data(), s.size());
  }

  /// Length-prefixed vector of fixed-width elements.
  template <typename T>
  void PutVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutU64(v.size());
    if (!v.empty()) Raw(v.data(), v.size() * sizeof(T));
  }

  /// Raw bytes, no length prefix.
  void Raw(const void* data, size_t n) {
    bytes_.append(reinterpret_cast<const char*>(data), n);
  }

  const std::string& bytes() const { return bytes_; }
  std::string&& TakeBytes() { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

 private:
  std::string bytes_;
};

/// Bounds-checked reading cursor over a byte buffer.
class ByteSource {
 public:
  explicit ByteSource(std::string_view bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

  Status GetU8(uint8_t* v) { return Raw(v, 1); }
  Status GetU32(uint32_t* v) { return Raw(v, 4); }
  Status GetU64(uint64_t* v) { return Raw(v, 8); }
  Status GetDouble(double* v) { return Raw(v, 8); }
  Status GetFloat(float* v) { return Raw(v, 4); }

  Status GetString(std::string* out) {
    uint64_t n = 0;
    PMI_RETURN_IF_ERROR(GetU64(&n));
    if (n > remaining()) return TruncatedError(n);
    out->assign(bytes_.data() + pos_, n);
    pos_ += n;
    return OkStatus();
  }

  template <typename T>
  Status GetVector(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t n = 0;
    PMI_RETURN_IF_ERROR(GetU64(&n));
    if (n > remaining() / sizeof(T)) return TruncatedError(n * sizeof(T));
    out->resize(n);
    return Raw(out->data(), n * sizeof(T));
  }

  /// Copies the next `n` bytes to `out`.  `out` may be null when n == 0
  /// (the data() of an empty vector): memcpy is not called then.
  Status Raw(void* out, size_t n) {
    if (n > remaining()) return TruncatedError(n);
    if (n == 0) return OkStatus();
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return OkStatus();
  }

 private:
  Status TruncatedError(uint64_t wanted) const {
    return DataLossError("snapshot truncated: need " + std::to_string(wanted) +
                         " bytes, have " + std::to_string(remaining()));
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

/// FNV-1a 64-bit hash; the snapshot integrity checksum.
inline uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// -- core value types ---------------------------------------------------------

inline void SerializeDataset(const Dataset& data, ByteSink* out) {
  out->PutU8(static_cast<uint8_t>(data.kind()));
  out->PutU32(data.dim());
  out->PutU32(data.size());
  if (data.kind() == ObjectKind::kVector) {
    for (ObjectId id = 0; id < data.size(); ++id) {
      out->Raw(data.view(id).vec, size_t(data.dim()) * sizeof(float));
    }
  } else {
    for (ObjectId id = 0; id < data.size(); ++id) {
      out->PutString(data.view(id).AsString());
    }
  }
}

inline StatusOr<Dataset> DeserializeDataset(ByteSource* in) {
  uint8_t kind = 0;
  uint32_t dim = 0, n = 0;
  PMI_RETURN_IF_ERROR(in->GetU8(&kind));
  PMI_RETURN_IF_ERROR(in->GetU32(&dim));
  PMI_RETURN_IF_ERROR(in->GetU32(&n));
  if (kind > static_cast<uint8_t>(ObjectKind::kString)) {
    return DataLossError("snapshot dataset has unknown object kind");
  }
  if (static_cast<ObjectKind>(kind) == ObjectKind::kVector) {
    if (dim == 0 && n > 0) {
      return DataLossError("snapshot vector dataset has dim 0");
    }
    if (n > 0 && size_t(dim) > in->remaining() / sizeof(float)) {
      return DataLossError("snapshot vector dataset wider than its payload");
    }
    Dataset data = Dataset::Vectors(dim);
    std::vector<float> row(dim);
    for (uint32_t i = 0; i < n; ++i) {
      PMI_RETURN_IF_ERROR(in->Raw(row.data(), size_t(dim) * sizeof(float)));
      data.AddVector(row.data());
    }
    return data;
  }
  Dataset data = Dataset::Strings();
  std::string s;
  for (uint32_t i = 0; i < n; ++i) {
    PMI_RETURN_IF_ERROR(in->GetString(&s));
    data.AddString(s);
  }
  return data;
}

inline void SerializePivotSet(const PivotSet& pivots, ByteSink* out) {
  // A PivotSet is its owned copy of the pivot objects; persist those as a
  // standalone dataset and rebuild from it (ids 0..l-1) on load.
  if (pivots.empty()) {
    SerializeDataset(Dataset::Vectors(0), out);
    return;
  }
  ObjectView first = pivots.pivot(0);
  Dataset store = first.kind == ObjectKind::kVector
                      ? Dataset::Vectors(first.dim)
                      : Dataset::Strings();
  for (uint32_t i = 0; i < pivots.size(); ++i) store.Add(pivots.pivot(i));
  SerializeDataset(store, out);
}

inline StatusOr<PivotSet> DeserializePivotSet(ByteSource* in) {
  PMI_ASSIGN_OR_RETURN(Dataset store, DeserializeDataset(in));
  std::vector<ObjectId> ids(store.size());
  for (uint32_t i = 0; i < store.size(); ++i) ids[i] = i;
  return PivotSet(store, ids);
}

inline void SerializePivotTable(const PivotTable& table, ByteSink* out) {
  out->PutU8(table.per_row_pivots() ? 1 : 0);
  out->PutU32(table.width());
  out->PutU64(table.rows());
  for (uint32_t p = 0; p < table.width(); ++p) {
    // Column p block by block; the concatenated slabs are byte-identical
    // to the contiguous column the pre-chunked format wrote.
    for (size_t base = 0; base < table.rows(); base += PivotTable::kScanBlock) {
      const size_t count =
          std::min<size_t>(PivotTable::kScanBlock, table.rows() - base);
      out->Raw(table.block_column(p, base), count * sizeof(double));
    }
  }
  if (table.per_row_pivots()) {
    for (uint32_t p = 0; p < table.width(); ++p) {
      for (size_t row = 0; row < table.rows(); ++row) {
        out->PutU32(table.pivot_index(row, p));
      }
    }
  }
}

/// Allocation guard for DeserializePivotTable: pivot counts in this
/// codebase are user-chosen small numbers, so anything past this is a
/// corrupt length field, not a real table.
constexpr uint32_t kMaxPivotTableWidth = 1u << 20;

inline Status DeserializePivotTable(ByteSource* in, PivotTable* table) {
  uint8_t per_row = 0;
  uint32_t width = 0;
  uint64_t rows = 0;
  PMI_RETURN_IF_ERROR(in->GetU8(&per_row));
  PMI_RETURN_IF_ERROR(in->GetU32(&width));
  PMI_RETURN_IF_ERROR(in->GetU64(&rows));
  // Size fields must be plausible against the remaining payload before
  // any allocation happens -- a corrupt (or crafted, checksums are not
  // cryptographic) length is a kDataLoss error, not a bad_alloc crash.
  // An empty table (rows == 0) carries no cells at all, so its width
  // cannot be bounded by the payload; Reset still allocates per-column
  // headers, so width gets an absolute cap instead.  A table drained by
  // removes is a legitimate state a checkpoint must round-trip.
  const uint64_t cell_bytes =
      sizeof(double) + (per_row != 0 ? sizeof(uint32_t) : 0);
  if (width > 0 && rows > 0 &&
      rows > in->remaining() / (uint64_t(width) * cell_bytes)) {
    return DataLossError("snapshot pivot table larger than its payload");
  }
  if (width > kMaxPivotTableWidth) {
    return DataLossError("snapshot pivot table width is implausible");
  }
  table->Reset(width, per_row != 0);
  table->ResizeRows(rows);
  std::vector<double> col(rows);
  std::vector<uint32_t> pidx_col(per_row != 0 ? rows : 0);
  for (uint32_t p = 0; p < width; ++p) {
    PMI_RETURN_IF_ERROR(in->Raw(col.data(), rows * sizeof(double)));
    for (size_t row = 0; row < rows; ++row) table->SetCell(row, p, col[row]);
  }
  if (per_row != 0) {
    for (uint32_t p = 0; p < width; ++p) {
      PMI_RETURN_IF_ERROR(
          in->Raw(pidx_col.data(), rows * sizeof(uint32_t)));
      for (size_t row = 0; row < rows; ++row) {
        table->SetPivotIndex(row, p, pidx_col[row]);
      }
    }
  }
  return OkStatus();
}

}  // namespace pmi

#endif  // PMI_CORE_SERIALIZE_H_
