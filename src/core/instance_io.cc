#include "core/instance_io.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <map>

#include "util/csv.h"
#include "util/string_util.h"

namespace ses::core {

namespace {

using util::CsvRow;
using util::Result;
using util::Status;

Result<int64_t> RequireInt(const std::map<std::string, std::string>& meta,
                           const std::string& key) {
  auto it = meta.find(key);
  if (it == meta.end()) {
    return Status::ParseError("meta.csv missing key: " + key);
  }
  return util::ParseInt64(it->second);
}

/// A dimension count (users, intervals): range-checked against
/// [1, UINT32_MAX] before the narrowing cast, so a negative or oversized
/// value is a typed error instead of a wrapped-around allocation size.
Result<uint32_t> RequireCount(const std::map<std::string, std::string>& meta,
                              const std::string& key) {
  auto value = RequireInt(meta, key);
  if (!value.ok()) return value.status();
  if (value.value() < 1 ||
      value.value() > std::numeric_limits<uint32_t>::max()) {
    return Status::OutOfRange(util::StrFormat(
        "meta.csv: %s=%lld outside [1, %u]", key.c_str(),
        static_cast<long long>(value.value()),
        std::numeric_limits<uint32_t>::max()));
  }
  return static_cast<uint32_t>(value.value());
}

/// An id field (user, location, interval): range-checked against
/// [0, UINT32_MAX] before the narrowing cast, so an out-of-range value
/// is a typed error instead of wrapping around into a valid id.
Result<uint32_t> ParseId(const std::string& field, const std::string& file,
                         const char* column) {
  auto value = util::ParseInt64(field);
  if (!value.ok()) return value.status();
  if (value.value() < 0 ||
      value.value() > std::numeric_limits<uint32_t>::max()) {
    return Status::OutOfRange(util::StrFormat(
        "%s: %s=%lld outside [0, %u]", file.c_str(), column,
        static_cast<long long>(value.value()),
        std::numeric_limits<uint32_t>::max()));
  }
  return static_cast<uint32_t>(value.value());
}

Result<double> RequireDouble(const std::map<std::string, std::string>& meta,
                             const std::string& key) {
  auto it = meta.find(key);
  if (it == meta.end()) {
    return Status::ParseError("meta.csv missing key: " + key);
  }
  return util::ParseDouble(it->second);
}

}  // namespace

std::shared_ptr<const SigmaProvider> SigmaSpec::Instantiate() const {
  switch (kind) {
    case Kind::kConst:
      return std::make_shared<ConstSigma>(const_value);
    case Kind::kHash:
      return std::make_shared<HashUniformSigma>(seed);
  }
  return nullptr;
}

Status SaveInstance(const SesInstance& instance, const SigmaSpec& sigma_spec,
                    const std::string& dir) {
  {
    std::vector<CsvRow> rows;
    rows.push_back({"users", std::to_string(instance.num_users())});
    rows.push_back({"intervals", std::to_string(instance.num_intervals())});
    rows.push_back({"theta", util::StrFormat("%.17g", instance.theta())});
    rows.push_back({"sigma_kind", sigma_spec.kind == SigmaSpec::Kind::kConst
                                      ? "const"
                                      : "hash"});
    rows.push_back({"sigma_value",
                    util::StrFormat("%.17g", sigma_spec.const_value)});
    rows.push_back({"sigma_seed", std::to_string(sigma_spec.seed)});
    SES_RETURN_IF_ERROR(
        util::WriteCsvFile(dir + "/meta.csv", {"key", "value"}, rows));
  }
  {
    std::vector<CsvRow> rows;
    rows.reserve(instance.num_events());
    for (EventIndex e = 0; e < instance.num_events(); ++e) {
      rows.push_back({std::to_string(e),
                      std::to_string(instance.event(e).location),
                      util::StrFormat("%.17g",
                                      instance.event(e).required_resources)});
    }
    SES_RETURN_IF_ERROR(util::WriteCsvFile(
        dir + "/events.csv", {"event_id", "location", "required_resources"},
        rows));
  }
  {
    std::vector<CsvRow> rows;
    for (EventIndex e = 0; e < instance.num_events(); ++e) {
      auto users = instance.EventUsers(e);
      auto values = instance.EventValues(e);
      for (size_t i = 0; i < users.size(); ++i) {
        rows.push_back({std::to_string(e), std::to_string(users[i]),
                        util::StrFormat("%.9g",
                                        static_cast<double>(values[i]))});
      }
    }
    SES_RETURN_IF_ERROR(util::WriteCsvFile(dir + "/event_interests.csv",
                                           {"event_id", "user_id", "mu"},
                                           rows));
  }
  {
    std::vector<CsvRow> rows;
    rows.reserve(instance.num_competing());
    for (CompetingIndex c = 0; c < instance.num_competing(); ++c) {
      rows.push_back({std::to_string(c),
                      std::to_string(instance.competing(c).interval)});
    }
    SES_RETURN_IF_ERROR(util::WriteCsvFile(
        dir + "/competing.csv", {"competing_id", "interval"}, rows));
  }
  {
    std::vector<CsvRow> rows;
    for (CompetingIndex c = 0; c < instance.num_competing(); ++c) {
      auto users = instance.CompetingUsers(c);
      auto values = instance.CompetingValues(c);
      for (size_t i = 0; i < users.size(); ++i) {
        rows.push_back({std::to_string(c), std::to_string(users[i]),
                        util::StrFormat("%.9g",
                                        static_cast<double>(values[i]))});
      }
    }
    SES_RETURN_IF_ERROR(util::WriteCsvFile(dir + "/competing_interests.csv",
                                           {"competing_id", "user_id", "mu"},
                                           rows));
  }
  return Status::Ok();
}

Result<SesInstance> LoadInstance(const std::string& dir) {
  // --- meta ---------------------------------------------------------------
  std::map<std::string, std::string> meta;
  {
    CsvRow header;
    auto rows = util::ReadCsvFile(dir + "/meta.csv", true, &header);
    if (!rows.ok()) return rows.status();
    for (const CsvRow& row : rows.value()) {
      if (row.size() != 2) return Status::ParseError("meta.csv: bad row");
      meta[row[0]] = row[1];
    }
  }
  auto users = RequireCount(meta, "users");
  if (!users.ok()) return users.status();
  auto intervals = RequireCount(meta, "intervals");
  if (!intervals.ok()) return intervals.status();
  auto theta = RequireDouble(meta, "theta");
  if (!theta.ok()) return theta.status();
  auto sigma_value = RequireDouble(meta, "sigma_value");
  if (!sigma_value.ok()) return sigma_value.status();
  auto sigma_seed = RequireInt(meta, "sigma_seed");
  if (!sigma_seed.ok()) return sigma_seed.status();

  SigmaSpec spec;
  spec.const_value = sigma_value.value();
  spec.seed = static_cast<uint64_t>(sigma_seed.value());
  const std::string kind = meta.count("sigma_kind") ? meta["sigma_kind"] : "";
  if (kind == "const") {
    spec.kind = SigmaSpec::Kind::kConst;
  } else if (kind == "hash") {
    spec.kind = SigmaSpec::Kind::kHash;
  } else {
    return Status::ParseError("meta.csv: unknown sigma_kind: " + kind);
  }
  // ConstSigma checks its value on construction and aborts; a bad file
  // must fail as a typed error before anything is built.
  if (!std::isfinite(spec.const_value)) {
    return Status::InvalidArgument(util::StrFormat(
        "meta.csv: sigma_value=%g is not finite", spec.const_value));
  }
  if (spec.kind == SigmaSpec::Kind::kConst &&
      (spec.const_value < 0.0 || spec.const_value > 1.0)) {
    return Status::OutOfRange(util::StrFormat(
        "meta.csv: sigma_value=%.17g outside [0, 1]", spec.const_value));
  }

  // --- interest triplets, grouped by row id ------------------------------
  auto load_triplets =
      [&dir](const std::string& file, size_t num_rows,
             std::vector<std::vector<std::pair<UserIndex, float>>>* out)
      -> Status {
    out->assign(num_rows, {});
    CsvRow header;
    auto rows = util::ReadCsvFile(dir + "/" + file, true, &header);
    if (!rows.ok()) return rows.status();
    for (const CsvRow& row : rows.value()) {
      if (row.size() != 3) return Status::ParseError(file + ": bad row");
      auto id = util::ParseInt64(row[0]);
      if (!id.ok()) return id.status();
      auto user = ParseId(row[1], file, "user_id");
      if (!user.ok()) return user.status();
      auto mu = util::ParseDouble(row[2]);
      if (!mu.ok()) return mu.status();
      if (id.value() < 0 || static_cast<size_t>(id.value()) >= num_rows) {
        return Status::OutOfRange(file + ": row id out of range");
      }
      (*out)[static_cast<size_t>(id.value())].push_back(
          {user.value(), static_cast<float>(mu.value())});
    }
    return Status::Ok();
  };

  // --- events -------------------------------------------------------------
  struct EventRow {
    LocationId location;
    double resources;
  };
  std::vector<EventRow> events;
  {
    CsvRow header;
    auto rows = util::ReadCsvFile(dir + "/events.csv", true, &header);
    if (!rows.ok()) return rows.status();
    for (const CsvRow& row : rows.value()) {
      if (row.size() != 3) return Status::ParseError("events.csv: bad row");
      auto location = ParseId(row[1], "events.csv", "location");
      if (!location.ok()) return location.status();
      auto resources = util::ParseDouble(row[2]);
      if (!resources.ok()) return resources.status();
      events.push_back({location.value(), resources.value()});
    }
  }
  std::vector<std::vector<std::pair<UserIndex, float>>> event_rows;
  SES_RETURN_IF_ERROR(
      load_triplets("event_interests.csv", events.size(), &event_rows));

  // --- competing events ---------------------------------------------------
  std::vector<IntervalIndex> competing;
  {
    CsvRow header;
    auto rows = util::ReadCsvFile(dir + "/competing.csv", true, &header);
    if (!rows.ok()) return rows.status();
    for (const CsvRow& row : rows.value()) {
      if (row.size() != 2) {
        return Status::ParseError("competing.csv: bad row");
      }
      auto interval = ParseId(row[1], "competing.csv", "interval");
      if (!interval.ok()) return interval.status();
      competing.push_back(interval.value());
    }
  }
  std::vector<std::vector<std::pair<UserIndex, float>>> competing_rows;
  SES_RETURN_IF_ERROR(load_triplets("competing_interests.csv",
                                    competing.size(), &competing_rows));

  // --- assemble -----------------------------------------------------------
  InstanceBuilder builder;
  builder.SetNumUsers(users.value())
      .SetNumIntervals(intervals.value())
      .SetTheta(theta.value())
      .SetSigma(spec.Instantiate());
  for (size_t e = 0; e < events.size(); ++e) {
    builder.AddEvent(events[e].location, events[e].resources,
                     std::move(event_rows[e]));
  }
  for (size_t c = 0; c < competing.size(); ++c) {
    builder.AddCompetingEvent(competing[c], std::move(competing_rows[c]));
  }
  return builder.Build();
}

}  // namespace ses::core
