#include "pipeline/entity.h"

#include <charconv>

#include "core/strings.h"

namespace censys::pipeline {

std::string HostEntityId(IPv4Address ip) { return ip.ToString(); }

std::string WebEntityId(std::string_view name) {
  return "web:" + ToLower(name);
}

std::string CertEntityId(std::string_view sha256_hex) {
  return "cert:" + std::string(sha256_hex);
}

std::string ServicePrefix(ServiceKey key) {
  std::string prefix = "svc.";
  prefix += std::to_string(key.port);
  prefix += '/';
  prefix += censys::ToString(key.transport);
  prefix += '.';
  return prefix;
}

storage::FieldMap ServiceFields(const ServiceRecord& record) {
  const std::string prefix = ServicePrefix(record.key);
  storage::FieldMap out;
  for (const auto& [key, value] : record.ToFields()) {
    out.emplace(prefix + key, value);
  }
  return out;
}

std::vector<ServiceKey> ServicesIn(const storage::FieldMap& entity_state,
                                   IPv4Address ip) {
  std::vector<ServiceKey> keys;
  std::string last_prefix;
  for (const auto& [field, value] : entity_state) {
    if (!StartsWith(field, "svc.")) continue;
    const std::size_t dot = field.find('.', 4);
    if (dot == std::string::npos) continue;
    const std::string prefix = field.substr(0, dot);
    if (prefix == last_prefix) continue;
    last_prefix = prefix;

    // prefix is "svc.<port>/<transport>".
    const std::string_view spec = std::string_view(prefix).substr(4);
    const std::size_t slash = spec.find('/');
    if (slash == std::string_view::npos) continue;
    unsigned port = 0;
    const auto* begin = spec.data();
    if (std::from_chars(begin, begin + slash, port).ec != std::errc())
      continue;
    const Transport transport = spec.substr(slash + 1) == "udp"
                                    ? Transport::kUdp
                                    : Transport::kTcp;
    keys.push_back(ServiceKey{ip, static_cast<Port>(port), transport});
  }
  return keys;
}

std::optional<ServiceRecord> RecordFrom(
    const storage::FieldMap& entity_state, ServiceKey key) {
  const std::string prefix = ServicePrefix(key);
  storage::FieldMap fields;
  for (auto it = entity_state.lower_bound(prefix);
       it != entity_state.end() && StartsWith(it->first, prefix); ++it) {
    fields.emplace(it->first.substr(prefix.size()), it->second);
  }
  if (fields.empty()) return std::nullopt;
  return ServiceRecord::FromFields(key, fields);
}

storage::Delta UpsertServiceDelta(const storage::FieldMap& entity_state,
                                  const ServiceRecord& record) {
  return UpsertServiceDelta(entity_state, record.key, ServiceFields(record));
}

storage::Delta UpsertServiceDelta(const storage::FieldMap& entity_state,
                                  ServiceKey key,
                                  const storage::FieldMap& service_fields) {
  // Diff the service's prefix range of the entity state in place. The
  // prefix ends in '.', so every key under it sorts before prefix-with-'/'.
  std::string prefix = ServicePrefix(key);
  const auto begin = entity_state.lower_bound(prefix);
  prefix.back() = '/';
  const auto end = entity_state.lower_bound(prefix);
  return storage::ComputeDelta(begin, end, service_fields);
}

storage::Delta RemoveServiceDelta(const storage::FieldMap& entity_state,
                                  ServiceKey key) {
  const std::string prefix = ServicePrefix(key);
  storage::Delta delta;
  for (auto it = entity_state.lower_bound(prefix);
       it != entity_state.end() && StartsWith(it->first, prefix); ++it) {
    delta.ops.push_back(
        {storage::FieldOp::Kind::kRemove, it->first, {}});
  }
  return delta;
}

}  // namespace censys::pipeline
