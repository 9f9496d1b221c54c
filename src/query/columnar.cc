#include "query/columnar.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "core/strings.h"
#include "core/trace.h"
#include "storage/frame.h"
#include "storage/serialize.h"

namespace censys::query {
namespace {

constexpr std::string_view kMagic = "CSG1";

// Streams one column's (row, value) pairs — rows arriving in ascending
// order — into dictionary ids and maximal runs, padding uncovered rows
// with the absent id 0.
struct ColumnBuilder {
  std::vector<std::string> dict;
  std::unordered_map<std::string, std::uint32_t> ids;  // value -> 1-based id
  std::vector<ColumnSegment::Run> runs;
  std::uint32_t filled = 0;

  void Extend(std::uint32_t id, std::uint32_t length) {
    if (length == 0) return;
    if (!runs.empty() && runs.back().value == id) {
      runs.back().length += length;
    } else {
      runs.push_back({id, length});
    }
    filled += length;
  }

  void Append(std::uint32_t row, const std::string& value) {
    if (row > filled) Extend(0, row - filled);
    auto [it, inserted] =
        ids.emplace(value, static_cast<std::uint32_t>(dict.size()) + 1);
    if (inserted) dict.push_back(value);
    Extend(it->second, 1);
  }
};

void AccumulateColumn(const ColumnSegment::Column& column,
                      std::map<std::string, std::uint64_t>& groups) {
  for (const ColumnSegment::Run& run : column.runs) {
    if (run.value != 0) groups[column.dict[run.value - 1]] += run.length;
  }
}

}  // namespace

std::string ColumnSegment::Encode() const {
  std::string out;
  out.append(kMagic);
  storage::PutVarint(out, static_cast<std::uint64_t>(day));
  storage::PutVarint(out, row_ids.size());
  for (const std::string& id : row_ids) storage::PutLengthPrefixed(out, id);
  storage::PutVarint(out, columns.size());
  for (const Column& column : columns) {
    storage::PutLengthPrefixed(out, column.field);
    storage::PutVarint(out, column.dict.size());
    for (const std::string& value : column.dict) {
      storage::PutLengthPrefixed(out, value);
    }
    storage::PutVarint(out, column.runs.size());
    for (const Run& run : column.runs) {
      storage::PutVarint(out, run.value);
      storage::PutVarint(out, run.length);
    }
  }
  return out;
}

std::optional<ColumnSegment> ColumnSegment::Decode(std::string_view payload) {
  if (payload.substr(0, kMagic.size()) != kMagic) return std::nullopt;
  std::size_t pos = kMagic.size();

  ColumnSegment segment;
  const auto day = storage::GetVarint(payload, &pos);
  if (!day.has_value()) return std::nullopt;
  segment.day = static_cast<std::int64_t>(*day);

  const auto row_count = storage::GetVarint(payload, &pos);
  if (!row_count.has_value() || *row_count > payload.size()) {
    return std::nullopt;
  }
  segment.row_ids.reserve(*row_count);
  for (std::uint64_t i = 0; i < *row_count; ++i) {
    const auto id = storage::GetLengthPrefixed(payload, &pos);
    if (!id.has_value()) return std::nullopt;
    if (!segment.row_ids.empty() && !(segment.row_ids.back() < *id)) {
      return std::nullopt;  // rows must be strictly ascending
    }
    segment.row_ids.emplace_back(*id);
  }

  const auto column_count = storage::GetVarint(payload, &pos);
  if (!column_count.has_value() || *column_count > payload.size()) {
    return std::nullopt;
  }
  segment.columns.reserve(*column_count);
  for (std::uint64_t c = 0; c < *column_count; ++c) {
    Column column;
    const auto field = storage::GetLengthPrefixed(payload, &pos);
    if (!field.has_value()) return std::nullopt;
    column.field = std::string(*field);
    if (!segment.columns.empty() &&
        !(segment.columns.back().field < column.field)) {
      return std::nullopt;  // columns must be strictly ascending
    }
    const auto dict_size = storage::GetVarint(payload, &pos);
    if (!dict_size.has_value() || *dict_size > payload.size()) {
      return std::nullopt;
    }
    column.dict.reserve(*dict_size);
    for (std::uint64_t i = 0; i < *dict_size; ++i) {
      const auto value = storage::GetLengthPrefixed(payload, &pos);
      if (!value.has_value()) return std::nullopt;
      column.dict.emplace_back(*value);
    }
    const auto run_count = storage::GetVarint(payload, &pos);
    if (!run_count.has_value() || *run_count > payload.size()) {
      return std::nullopt;
    }
    column.runs.reserve(*run_count);
    std::uint64_t covered = 0;
    for (std::uint64_t i = 0; i < *run_count; ++i) {
      const auto value = storage::GetVarint(payload, &pos);
      const auto length = storage::GetVarint(payload, &pos);
      if (!value.has_value() || !length.has_value()) return std::nullopt;
      if (*value > column.dict.size() || *length == 0) return std::nullopt;
      covered += *length;
      column.runs.push_back({static_cast<std::uint32_t>(*value),
                             static_cast<std::uint32_t>(*length)});
    }
    if (covered != *row_count) return std::nullopt;  // must tile all rows
    segment.columns.push_back(std::move(column));
  }
  if (pos != payload.size()) return std::nullopt;  // trailing garbage
  return segment;
}

ColumnSegment BuildSegment(const storage::EventJournal& journal,
                           std::int64_t day) {
  // Snapshot the universe (non-empty entities, like the search index),
  // then sort rows so equal states encode byte-identically regardless of
  // journal shard iteration order.
  std::vector<std::pair<std::string, storage::FieldMap>> rows;
  journal.ForEachEntity(
      [&](std::string_view entity, const storage::FieldMap& fields) {
        if (fields.empty()) return;
        rows.emplace_back(std::string(entity), fields);
      });
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  ColumnSegment segment;
  segment.day = day;
  segment.row_ids.reserve(rows.size());
  std::map<std::string, ColumnBuilder> builders;
  for (std::uint32_t row = 0; row < rows.size(); ++row) {
    segment.row_ids.push_back(rows[row].first);
    for (const auto& [field, value] : rows[row].second) {
      builders[field].Append(row, value);
    }
  }
  segment.columns.reserve(builders.size());
  for (auto& [field, builder] : builders) {
    builder.Extend(0, static_cast<std::uint32_t>(rows.size()) -
                          builder.filled);  // pad the tail
    ColumnSegment::Column column;
    column.field = field;
    column.dict = std::move(builder.dict);
    column.runs = std::move(builder.runs);
    segment.columns.push_back(std::move(column));
  }
  return segment;
}

bool AnalyticsTier::BuildDay(std::int64_t day, std::string* error) {
  TRACE_SPAN("query", "columnar.build");
  auto segment = std::make_shared<const ColumnSegment>(
      BuildSegment(journal_, day));
  const std::string encoded = segment->Encode();
  if (!options_.dir.empty()) {
    if (!storage::WriteSegmentFile(SegmentPath(day), encoded, error)) {
      return false;
    }
  }
  {
    const core::MutexLock lock(mu_);
    segments_[day] = std::move(segment);
  }
  built_metric_.Add();
  bytes_metric_.Add(encoded.size());
  return true;
}

AnalyticsTier::SegmentPtr AnalyticsTier::FindSegment(std::int64_t day) const {
  {
    const core::ReaderLock lock(mu_);
    // Newest cached day <= the requested one.
    auto it = segments_.upper_bound(day);
    if (it != segments_.begin()) return std::prev(it)->second;
  }
  if (options_.dir.empty()) return nullptr;
  const std::string path = SegmentPath(day);
  if (!storage::SegmentFileExists(path)) return nullptr;
  std::string error;
  const auto payload = storage::ReadSegmentFile(path, &error);
  if (!payload.has_value()) {
    corrupt_metric_.Add();
    return nullptr;
  }
  auto decoded = ColumnSegment::Decode(*payload);
  if (!decoded.has_value()) {
    corrupt_metric_.Add();
    return nullptr;
  }
  auto segment = std::make_shared<const ColumnSegment>(std::move(*decoded));
  const core::MutexLock lock(mu_);
  segments_[day] = segment;
  return segment;
}

AnalyticsTier::Aggregate AnalyticsTier::GroupCount(
    std::int64_t day, std::string_view field) const {
  TRACE_SPAN("query", "columnar.scan");
  scans_metric_.Add();
  const SegmentPtr segment = FindSegment(day);
  if (segment == nullptr) {
    fallback_metric_.Add();
    return WalkJournal(field);
  }
  Aggregate out;
  out.from_segment = true;
  out.day = segment->day;
  out.rows = segment->row_ids.size();
  scan_rows_metric_.Add(out.rows);
  const auto it = std::lower_bound(
      segment->columns.begin(), segment->columns.end(), field,
      [](const ColumnSegment::Column& c, std::string_view f) {
        return c.field < f;
      });
  if (it != segment->columns.end() && it->field == field) {
    AccumulateColumn(*it, out.groups);
  }
  return out;
}

AnalyticsTier::Aggregate AnalyticsTier::GroupCountSuffix(
    std::int64_t day, std::string_view suffix) const {
  TRACE_SPAN("query", "columnar.scan");
  scans_metric_.Add();
  const SegmentPtr segment = FindSegment(day);
  if (segment == nullptr) {
    fallback_metric_.Add();
    return WalkJournalSuffix(suffix);
  }
  Aggregate out;
  out.from_segment = true;
  out.day = segment->day;
  out.rows = segment->row_ids.size();
  scan_rows_metric_.Add(out.rows);
  for (const ColumnSegment::Column& column : segment->columns) {
    if (EndsWith(column.field, suffix)) AccumulateColumn(column, out.groups);
  }
  return out;
}

AnalyticsTier::Aggregate AnalyticsTier::WalkJournal(
    std::string_view field) const {
  Aggregate out;
  journal_.ForEachEntity(
      [&](std::string_view /*entity*/, const storage::FieldMap& fields) {
        if (fields.empty()) return;
        ++out.rows;
        const auto it = fields.find(std::string(field));
        if (it != fields.end()) ++out.groups[it->second];
      });
  return out;
}

AnalyticsTier::Aggregate AnalyticsTier::WalkJournalSuffix(
    std::string_view suffix) const {
  Aggregate out;
  journal_.ForEachEntity(
      [&](std::string_view /*entity*/, const storage::FieldMap& fields) {
        if (fields.empty()) return;
        ++out.rows;
        for (const auto& [field, value] : fields) {
          if (EndsWith(field, suffix)) ++out.groups[value];
        }
      });
  return out;
}

std::vector<std::int64_t> AnalyticsTier::CachedDays() const {
  const core::ReaderLock lock(mu_);
  std::vector<std::int64_t> days;
  days.reserve(segments_.size());
  for (const auto& [day, segment] : segments_) days.push_back(day);
  return days;
}

std::string AnalyticsTier::SegmentPath(std::int64_t day) const {
  return options_.dir + "/seg-" + std::to_string(day) + ".col";
}

void AnalyticsTier::BindMetrics(metrics::Registry* registry) {
  built_metric_ =
      metrics::BindCounter(registry, "censys.query.segments_built");
  bytes_metric_ = metrics::BindCounter(registry, "censys.query.segment_bytes");
  scans_metric_ = metrics::BindCounter(registry, "censys.query.scans");
  scan_rows_metric_ = metrics::BindCounter(registry, "censys.query.scan_rows");
  corrupt_metric_ =
      metrics::BindCounter(registry, "censys.query.segment_corrupt");
  fallback_metric_ =
      metrics::BindCounter(registry, "censys.query.fallback_walks");
}

}  // namespace censys::query
