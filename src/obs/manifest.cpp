#include "obs/manifest.hpp"

#include <cstdio>
#include <cstring>

#include "obs/json.hpp"

namespace plos::obs {

void fill_build_info(RunManifest& manifest) {
#ifdef __VERSION__
  manifest.compiler = __VERSION__;
#else
  manifest.compiler = "unknown";
#endif
#ifdef NDEBUG
  manifest.build_type = "release";
#else
  manifest.build_type = "debug";
#endif
}

namespace {

void append_string_map(std::string& out, const char* key,
                       const std::map<std::string, std::string>& values) {
  out += '"';
  out += key;
  out += "\":{";
  bool first = true;
  for (const auto& [k, v] : values) {
    if (!first) out += ',';
    first = false;
    out += json::escape(k);
    out += ':';
    out += json::escape(v);
  }
  out += '}';
}

void append_double_map(std::string& out, const char* key,
                       const std::map<std::string, double>& values) {
  out += '"';
  out += key;
  out += "\":{";
  bool first = true;
  for (const auto& [k, v] : values) {
    if (!first) out += ',';
    first = false;
    out += json::escape(k);
    out += ':';
    out += json::number(v);
  }
  out += '}';
}

std::string hash_hex(std::uint64_t hash) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

}  // namespace

std::string manifest_to_json(const RunManifest& manifest,
                             bool include_timing) {
  std::string out = "{";
  out += "\"tool\":";
  out += json::escape(manifest.tool);
  out += ",\"schema_version\":";
  out += std::to_string(manifest.schema_version);
  out += ",\"build\":{\"compiler\":";
  out += json::escape(manifest.compiler);
  out += ",\"build_type\":";
  out += json::escape(manifest.build_type);
  out += "},\"seed\":";
  out += std::to_string(manifest.seed);

  const DatasetFingerprint& d = manifest.dataset;
  out += ",\"dataset\":{\"name\":";
  out += json::escape(d.name);
  out += ",\"users\":";
  out += std::to_string(d.users);
  out += ",\"providers\":";
  out += std::to_string(d.providers);
  out += ",\"samples\":";
  out += std::to_string(d.samples);
  out += ",\"dim\":";
  out += std::to_string(d.dim);
  out += ",\"labeled_fraction\":";
  out += json::number(d.labeled_fraction);
  out += ",\"content_hash\":";
  out += json::escape(hash_hex(d.content_hash));
  out += "},";

  append_string_map(out, "options", manifest.options);
  out += ',';
  append_string_map(out, "fault", manifest.fault);
  out += ',';
  append_double_map(out, "results", manifest.results);

  out += ",\"watchdog\":{\"verdict\":";
  out += json::escape(manifest.watchdog_verdict);
  out += ",\"violations\":";
  out += std::to_string(manifest.watchdog_violations);
  out += ",\"first_violation\":";
  out += json::escape(manifest.watchdog_first_violation);
  out += '}';

  if (include_timing) {
    out += ",\"timing\":{\"threads\":";
    out += std::to_string(manifest.threads);
    out += ",\"wall_seconds\":";
    out += json::number(manifest.wall_seconds);
    for (const auto& [k, v] : manifest.timing) {
      out += ',';
      out += json::escape(k);
      out += ':';
      out += json::number(v);
    }
    out += '}';
  }
  out += '}';
  return out;
}

void Fnv1a::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= bytes[i];
    state_ *= 1099511628211ull;  // FNV prime
  }
}

void Fnv1a::add_u64(std::uint64_t value) { add_bytes(&value, sizeof(value)); }

void Fnv1a::add_double(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  add_u64(bits);
}

}  // namespace plos::obs
