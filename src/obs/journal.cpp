#include "obs/journal.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "obs/json.hpp"

namespace plos::obs {

namespace {

// Optional doubles serialize as `null` when unset (NaN sentinel); real
// non-finite results also render null, distinguished by the finite flag.
void append_optional(std::string& out, const char* key, double value) {
  out += '"';
  out += key;
  out += "\":";
  out += json::number(value);
}

void append_u64(std::string& out, const char* key, std::uint64_t value) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(value);
}

double optional_number(const json::Value& record, std::string_view key) {
  const json::Value* field = record.find(key);
  if (field == nullptr || !field->is_number()) return RoundRecord::kUnset;
  return field->as_number();
}

std::uint64_t u64_field(const json::Value& record, std::string_view key) {
  const json::Value* field = record.find(key);
  if (field == nullptr || !field->is_number()) return 0;
  return static_cast<std::uint64_t>(field->as_number());
}

}  // namespace

std::string record_to_json(const RoundRecord& record) {
  std::string out = "{";
  out += "\"trainer\":";
  out += json::escape(record.trainer);
  out += ",\"cccp_round\":";
  out += std::to_string(record.cccp_round);
  out += ",\"admm_iteration\":";
  out += std::to_string(record.admm_iteration);
  out += ',';
  append_optional(out, "objective", record.objective);
  out += ",\"objective_finite\":";
  out += record.objective_finite ? "true" : "false";
  out += ',';
  append_optional(out, "primal_residual", record.primal_residual);
  out += ',';
  append_optional(out, "dual_residual", record.dual_residual);
  out += ',';
  append_optional(out, "eq24_rel", record.eq24_rel);
  out += ',';
  append_u64(out, "constraints", record.constraints);
  out += ",\"qp_solves\":";
  out += std::to_string(record.qp_solves);
  out += ",\"qp_iterations\":";
  out += std::to_string(record.qp_iterations);
  out += ",\"qp_unconverged\":";
  out += std::to_string(record.qp_unconverged);
  out += ',';
  append_optional(out, "participation_rate", record.participation_rate);
  out += ',';
  append_u64(out, "bytes_to_devices", record.bytes_to_devices);
  out += ',';
  append_u64(out, "bytes_to_server", record.bytes_to_server);
  out += ',';
  append_u64(out, "messages_dropped", record.messages_dropped);
  out += ',';
  append_u64(out, "retries", record.retries);
  out += ',';
  append_u64(out, "quorum_size", record.quorum_size);
  out += ',';
  append_u64(out, "late_uploads", record.late_uploads);
  out += ',';
  append_u64(out, "evictions_offline", record.evictions_offline);
  out += ',';
  append_u64(out, "evictions_late", record.evictions_late);
  out += ',';
  append_u64(out, "evictions_failed", record.evictions_failed);
  out += ',';
  append_u64(out, "max_staleness", record.max_staleness);
  out += ",\"staleness_hist\":[";
  for (std::size_t i = 0; i < record.staleness_hist.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(record.staleness_hist[i]);
  }
  out += "],";
  append_optional(out, "stale_p50", record.stale_p50);
  out += ',';
  append_optional(out, "stale_p90", record.stale_p90);
  out += ',';
  append_optional(out, "stale_p99", record.stale_p99);
  out += ',';
  append_u64(out, "lat_count", record.lat_count);
  out += ',';
  append_optional(out, "lat_p50", record.lat_p50);
  out += ',';
  append_optional(out, "lat_p90", record.lat_p90);
  out += ',';
  append_optional(out, "lat_p99", record.lat_p99);
  out += ",\"cause_counts\":[";
  for (std::size_t i = 0; i < record.cause_counts.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(record.cause_counts[i]);
  }
  out += "],";
  append_optional(out, "tuned_quorum", record.tuned_quorum);
  out += ',';
  append_u64(out, "tuned_staleness_bound", record.tuned_staleness_bound);
  out += ",\"tune_event\":";
  out += json::escape(record.tune_event);
  out += ',';
  append_optional(out, "tune_trigger", record.tune_trigger);
  out += '}';
  return out;
}

void Journal::set_every(std::uint64_t n) {
  const std::lock_guard<std::mutex> lock(mutex_);
  PLOS_CHECK(n >= 1, "Journal: --journal-every must be >= 1");
  every_ = n;
}

std::uint64_t Journal::every() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return every_;
}

std::uint64_t Journal::offered() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return offered_;
}

void Journal::append(const RoundRecord& record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Downsampling keeps the 1st, (n+1)th, ... offered record: whole
  // aggregation-boundary records are dropped, never partial fields, so a
  // kept line is byte-identical to the same line of an every=1 run.
  const bool keep = (offered_ % every_) == 0;
  ++offered_;
  if (!keep) return;
  // Monotonic-round ordering: within one trainer's stream, records arrive
  // in strictly increasing (cccp_round, admm_iteration) order — the byte-
  // identity contract (§8) depends on append order being loop order, so an
  // out-of-order append means a racing or misbehaving producer.
  if (!records_.empty() && records_.back().trainer == record.trainer) {
    const RoundRecord& last = records_.back();
    PLOS_CHECK(record.cccp_round > last.cccp_round ||
                   (record.cccp_round == last.cccp_round &&
                    record.admm_iteration > last.admm_iteration),
               "Journal: out-of-order round record ("
                   << record.cccp_round << "," << record.admm_iteration
                   << ") after (" << last.cccp_round << ","
                   << last.admm_iteration << ")");
  }
  records_.push_back(record);
}

std::size_t Journal::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::vector<RoundRecord> Journal::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::string Journal::to_jsonl() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const RoundRecord& record : records_) {
    out += record_to_json(record);
    out += '\n';
  }
  return out;
}

bool parse_journal_jsonl(std::string_view text, std::vector<RoundRecord>& out,
                         std::string* error) {
  std::size_t line_number = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++line_number;
    if (line.empty()) continue;

    std::string parse_error;
    const auto value = json::parse(line, &parse_error);
    if (!value || !value->is_object()) {
      if (error != nullptr) {
        *error = "journal line " + std::to_string(line_number) + ": " +
                 (parse_error.empty() ? "not a JSON object" : parse_error);
      }
      return false;
    }

    RoundRecord record;
    if (const json::Value* trainer = value->find("trainer");
        trainer != nullptr && trainer->is_string()) {
      record.trainer = trainer->as_string();
    }
    record.cccp_round = static_cast<int>(u64_field(*value, "cccp_round"));
    if (const json::Value* admm = value->find("admm_iteration");
        admm != nullptr && admm->is_number()) {
      record.admm_iteration = static_cast<int>(admm->as_number());
    }
    record.objective = optional_number(*value, "objective");
    if (const json::Value* finite = value->find("objective_finite");
        finite != nullptr && finite->is_bool()) {
      record.objective_finite = finite->as_bool();
    }
    record.primal_residual = optional_number(*value, "primal_residual");
    record.dual_residual = optional_number(*value, "dual_residual");
    record.eq24_rel = optional_number(*value, "eq24_rel");
    record.constraints =
        static_cast<std::size_t>(u64_field(*value, "constraints"));
    record.qp_solves = static_cast<int>(u64_field(*value, "qp_solves"));
    record.qp_iterations =
        static_cast<int>(u64_field(*value, "qp_iterations"));
    record.qp_unconverged =
        static_cast<int>(u64_field(*value, "qp_unconverged"));
    record.participation_rate = optional_number(*value, "participation_rate");
    record.bytes_to_devices = u64_field(*value, "bytes_to_devices");
    record.bytes_to_server = u64_field(*value, "bytes_to_server");
    record.messages_dropped = u64_field(*value, "messages_dropped");
    record.retries = u64_field(*value, "retries");
    record.quorum_size = u64_field(*value, "quorum_size");
    record.late_uploads = u64_field(*value, "late_uploads");
    record.evictions_offline = u64_field(*value, "evictions_offline");
    record.evictions_late = u64_field(*value, "evictions_late");
    record.evictions_failed = u64_field(*value, "evictions_failed");
    record.max_staleness = u64_field(*value, "max_staleness");
    record.staleness_hist.clear();
    if (const json::Value* hist = value->find("staleness_hist");
        hist != nullptr && hist->is_array()) {
      for (const json::Value& entry : hist->as_array()) {
        if (!entry.is_number()) continue;
        record.staleness_hist.push_back(
            static_cast<std::uint64_t>(entry.as_number()));
      }
    }
    record.stale_p50 = optional_number(*value, "stale_p50");
    record.stale_p90 = optional_number(*value, "stale_p90");
    record.stale_p99 = optional_number(*value, "stale_p99");
    record.lat_count = u64_field(*value, "lat_count");
    record.lat_p50 = optional_number(*value, "lat_p50");
    record.lat_p90 = optional_number(*value, "lat_p90");
    record.lat_p99 = optional_number(*value, "lat_p99");
    record.cause_counts.clear();
    if (const json::Value* causes = value->find("cause_counts");
        causes != nullptr && causes->is_array()) {
      for (const json::Value& entry : causes->as_array()) {
        if (!entry.is_number()) continue;
        record.cause_counts.push_back(
            static_cast<std::uint64_t>(entry.as_number()));
      }
    }
    record.tuned_quorum = optional_number(*value, "tuned_quorum");
    record.tuned_staleness_bound =
        u64_field(*value, "tuned_staleness_bound");
    if (const json::Value* tune = value->find("tune_event");
        tune != nullptr && tune->is_string()) {
      record.tune_event = tune->as_string();
    }
    record.tune_trigger = optional_number(*value, "tune_trigger");
    out.push_back(std::move(record));
  }
  return true;
}

}  // namespace plos::obs
