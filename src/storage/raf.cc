#include "src/storage/raf.h"

#include <algorithm>
#include <cstring>

namespace pmi {

RafRef RecordFile::Append(const char* data, uint32_t len) {
  const uint32_t ps = file_->page_size();
  // Keep whole records within a page when they fit in one: records never
  // straddle a boundary unless longer than a page.  This mirrors slotted
  // pages and creates the per-page waste the paper observes for Color
  // objects (Section 6.2, storage discussion).
  if (len <= ps) {
    uint32_t in_page = static_cast<uint32_t>(end_ % ps);
    if (in_page != 0 && in_page + len > ps) end_ += ps - in_page;  // pad
  }
  RafRef ref{end_, len};
  uint64_t pos = end_;
  uint32_t remaining = len;
  const char* src = data;
  while (remaining > 0) {
    uint32_t page_idx = static_cast<uint32_t>(pos / ps);
    uint32_t in_page = static_cast<uint32_t>(pos % ps);
    while (page_idx >= pages_.size()) pages_.push_back(file_->Allocate());
    uint32_t chunk = std::min(remaining, ps - in_page);
    // Fresh append never needs the old page image when starting a page.
    PageHandle h = file_->Write(pages_[page_idx], /*load=*/in_page != 0);
    std::memcpy(h.mutable_data() + in_page, src, chunk);
    pos += chunk;
    src += chunk;
    remaining -= chunk;
  }
  end_ = ref.offset + len;
  return ref;
}

StatusOr<std::string_view> RecordFile::Reader::Read(const RafRef& ref) {
  const uint64_t end = raf_->end_;
  if (ref.offset > end || ref.length > end - ref.offset) {
    return DataLossError(
        "record ref [" + std::to_string(ref.offset) + ", +" +
        std::to_string(ref.length) + ") exceeds the stored " +
        std::to_string(end) + " bytes");
  }
  if (ref.length == 0) return std::string_view();  // touches no page
  const uint32_t ps = raf_->file_->page_size();
  uint32_t page_idx = static_cast<uint32_t>(ref.offset / ps);
  uint32_t in_page = static_cast<uint32_t>(ref.offset % ps);
  if (ref.length <= ps - in_page) {
    PMI_RETURN_IF_ERROR(Touch(page_idx));
    return std::string_view(held_.data() + in_page, ref.length);
  }
  // A record longer than a page spans consecutive file pages: prime the
  // physical pool for the whole span (logical PA is untouched).
  const std::vector<PageId>& pages = raf_->pages_;
  if (ref.length > ps && page_idx < pages.size()) {
    const uint32_t last =
        static_cast<uint32_t>((ref.offset + ref.length - 1) / ps);
    // The span usually maps to consecutively allocated file pages;
    // readahead covers the contiguous prefix.
    uint32_t run = 1;
    while (page_idx + run <= last && page_idx + run < pages.size() &&
           pages[page_idx + run] == pages[page_idx] + run) {
      ++run;
    }
    raf_->file_->ReadaheadPages(pages[page_idx], run);
  }
  spill_.resize(ref.length);
  char* dst = spill_.data();
  uint32_t remaining = ref.length;
  while (remaining > 0) {
    PMI_RETURN_IF_ERROR(Touch(page_idx));
    const uint32_t chunk = std::min(remaining, ps - in_page);
    std::memcpy(dst, held_.data() + in_page, chunk);
    dst += chunk;
    remaining -= chunk;
    ++page_idx;
    in_page = 0;
  }
  return std::string_view(spill_.data(), ref.length);
}

Status RecordFile::Reader::Touch(uint32_t page_idx) {
  if (page_idx >= raf_->pages_.size()) {
    return DataLossError("record ref reaches past the last RAF page");
  }
  const PageId id = raf_->pages_[page_idx];
  if (held_ && id == held_page_) return raf_->file_->LogicalRead(id);
  held_.Reset();  // drop the old pin before taking the next
  PMI_ASSIGN_OR_RETURN(held_, raf_->file_->ReadPage(id));
  held_page_ = id;
  return OkStatus();
}

}  // namespace pmi
