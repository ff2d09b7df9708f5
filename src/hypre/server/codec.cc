#include "hypre/server/codec.h"

#include "sqlparse/select_parser.h"

namespace hypre {
namespace server {

namespace {

/// Optional non-negative integer field; `out` untouched when absent.
Status ReadOptionalUint(const Json& body, const std::string& key,
                        uint64_t* out) {
  const Json* field = body.Find(key);
  if (field == nullptr) return Status::OK();
  if (field->kind() != Json::Kind::kInt || field->AsInt() < 0) {
    return Status::InvalidArgument("field '" + key +
                                   "' must be a non-negative integer");
  }
  *out = static_cast<uint64_t>(field->AsInt());
  return Status::OK();
}

Status ReadOptionalBool(const Json& body, const std::string& key, bool* out) {
  const Json* field = body.Find(key);
  if (field == nullptr) return Status::OK();
  if (field->kind() != Json::Kind::kBool) {
    return Status::InvalidArgument("field '" + key + "' must be a boolean");
  }
  *out = field->AsBool();
  return Status::OK();
}

Result<double> ReadNumber(const Json& object, const std::string& key,
                          const std::string& context) {
  const Json* field = object.Find(key);
  if (field == nullptr || (field->kind() != Json::Kind::kInt &&
                           field->kind() != Json::Kind::kDouble)) {
    return Status::InvalidArgument(context + ": field '" + key +
                                   "' must be a number");
  }
  return field->AsDouble();
}

}  // namespace

Result<DecodedEnumerate> DecodeEnumerateRequest(const std::string& body) {
  HYPRE_ASSIGN_OR_RETURN(Json root, Json::Parse(body, "enumerate request"));
  if (root.kind() != Json::Kind::kObject) {
    return Status::InvalidArgument(
        "enumerate request body must be a JSON object");
  }
  DecodedEnumerate decoded;
  api::EnumerationRequest& request = decoded.request;

  HYPRE_ASSIGN_OR_RETURN(request.algorithm,
                         root.GetString("algorithm", "enumerate request"));
  HYPRE_ASSIGN_OR_RETURN(std::string base_sql,
                         root.GetString("base_query", "enumerate request"));
  HYPRE_ASSIGN_OR_RETURN(sqlparse::SelectStatement stmt,
                         sqlparse::ParseSelect(base_sql));
  if (stmt.count_distinct) {
    return Status::InvalidArgument(
        "base_query must be a plain SELECT (no COUNT(DISTINCT ...))");
  }
  request.base_query = stmt.query;
  HYPRE_ASSIGN_OR_RETURN(request.key_column,
                         root.GetString("key_column", "enumerate request"));

  HYPRE_ASSIGN_OR_RETURN(const Json* preferences,
                         root.GetArray("preferences", "enumerate request"));
  if (preferences->size() == 0) {
    return Status::InvalidArgument(
        "enumerate request: 'preferences' must not be empty");
  }
  if (preferences->size() > kMaxRequestPreferences) {
    return Status::InvalidArgument(
        "enumerate request: 'preferences' holds " +
        std::to_string(preferences->size()) + " entries (cap " +
        std::to_string(kMaxRequestPreferences) + ")");
  }
  for (size_t i = 0; i < preferences->size(); ++i) {
    const Json& entry = preferences->at(i);
    const std::string context = "preferences[" + std::to_string(i) + "]";
    if (entry.kind() != Json::Kind::kObject) {
      return Status::InvalidArgument(context + " must be an object");
    }
    HYPRE_ASSIGN_OR_RETURN(std::string predicate,
                           entry.GetString("predicate", context));
    HYPRE_ASSIGN_OR_RETURN(double intensity,
                           ReadNumber(entry, "intensity", context));
    HYPRE_ASSIGN_OR_RETURN(core::PreferenceAtom atom,
                           core::MakeAtom(predicate, intensity));
    request.preferences.push_back(std::move(atom));
  }

  uint64_t k = 0;
  HYPRE_RETURN_NOT_OK(ReadOptionalUint(root, "k", &k));
  request.k = static_cast<size_t>(k);
  uint64_t probe_budget = 0;
  HYPRE_RETURN_NOT_OK(ReadOptionalUint(root, "probe_budget", &probe_budget));
  request.probe_budget = static_cast<size_t>(probe_budget);
  HYPRE_RETURN_NOT_OK(ReadOptionalUint(root, "seed", &request.seed));
  HYPRE_RETURN_NOT_OK(ReadOptionalBool(root, "refresh", &request.refresh));
  HYPRE_RETURN_NOT_OK(
      ReadOptionalUint(root, "deadline_ms", &decoded.deadline_ms));
  HYPRE_RETURN_NOT_OK(
      ReadOptionalUint(root, "debug_sleep_ms", &decoded.debug_sleep_ms));

  if (const Json* semantics = root.Find("semantics")) {
    if (semantics->kind() != Json::Kind::kString) {
      return Status::InvalidArgument("field 'semantics' must be a string");
    }
    const std::string& s = semantics->AsString();
    if (s == "and") {
      request.semantics = core::CombineSemantics::kAnd;
    } else if (s == "and-or") {
      request.semantics = core::CombineSemantics::kAndOr;
    } else {
      return Status::InvalidArgument("unknown semantics '" + s +
                                     "' (expected \"and\" or \"and-or\")");
    }
  }
  if (const Json* mode = root.Find("mode")) {
    if (mode->kind() != Json::Kind::kString) {
      return Status::InvalidArgument("field 'mode' must be a string");
    }
    const std::string& m = mode->AsString();
    if (m == "complete") {
      request.mode = core::PepsMode::kComplete;
    } else if (m == "approximate") {
      request.mode = core::PepsMode::kApproximate;
    } else {
      return Status::InvalidArgument(
          "unknown mode '" + m + "' (expected \"complete\" or \"approximate\")");
    }
  }
  return decoded;
}

Json ValueToJson(const reldb::Value& value) {
  switch (value.type()) {
    case reldb::ValueType::kNull: return Json::Null();
    case reldb::ValueType::kInt64: return Json::Int(value.AsInt());
    case reldb::ValueType::kDouble: return Json::Double(value.AsDouble());
    case reldb::ValueType::kString: return Json::Str(value.AsString());
  }
  return Json::Null();
}

std::string EncodeEnumerationResult(const std::string& algorithm,
                                    const api::EnumerationResult& result) {
  Json root = Json::Object();
  root.Set("algorithm", Json::Str(algorithm));
  root.Set("epoch", Json::Int(static_cast<int64_t>(result.epoch)));
  root.Set("truncated", Json::Bool(result.truncated));

  Json records = Json::Array();
  for (const core::CombinationRecord& record : result.records) {
    Json r = Json::Object();
    r.Set("predicate_sql", Json::Str(record.predicate_sql));
    r.Set("intensity", Json::Double(record.intensity));
    r.Set("num_predicates",
          Json::Int(static_cast<int64_t>(record.num_predicates)));
    r.Set("num_tuples", Json::Int(static_cast<int64_t>(record.num_tuples)));
    records.Append(std::move(r));
  }
  root.Set("records", std::move(records));

  Json top_k = Json::Array();
  for (const core::RankedTuple& tuple : result.top_k) {
    Json t = Json::Object();
    t.Set("key", ValueToJson(tuple.key));
    t.Set("intensity", Json::Double(tuple.intensity));
    top_k.Append(std::move(t));
  }
  root.Set("top_k", std::move(top_k));

  Json stats = Json::Object();
  stats.Set("leaf_queries",
            Json::Int(static_cast<int64_t>(result.stats.num_leaf_queries)));
  stats.Set("cache_hits",
            Json::Int(static_cast<int64_t>(result.stats.num_cache_hits)));
  stats.Set("batches",
            Json::Int(static_cast<int64_t>(result.stats.num_batches)));
  stats.Set("batched_probes",
            Json::Int(static_cast<int64_t>(result.stats.num_batched_probes)));
  stats.Set("shard_passes",
            Json::Int(static_cast<int64_t>(result.stats.num_shard_passes)));
  root.Set("stats", std::move(stats));

  root.Set("valid_checks",
           Json::Int(static_cast<int64_t>(result.valid_checks)));
  root.Set("invalid_checks",
           Json::Int(static_cast<int64_t>(result.invalid_checks)));
  return root.Dump();
}

Result<DecodedMutate> DecodeMutateRequest(const std::string& body) {
  HYPRE_ASSIGN_OR_RETURN(Json root, Json::Parse(body, "mutate request"));
  if (root.kind() != Json::Kind::kObject) {
    return Status::InvalidArgument("mutate request body must be a JSON object");
  }
  DecodedMutate decoded;
  HYPRE_RETURN_NOT_OK(ReadOptionalBool(root, "commit", &decoded.commit));
  HYPRE_ASSIGN_OR_RETURN(const Json* ops,
                         root.GetArray("ops", "mutate request"));
  if (ops->size() == 0) {
    return Status::InvalidArgument("mutate request: 'ops' must not be empty");
  }
  for (size_t i = 0; i < ops->size(); ++i) {
    const Json& entry = ops->at(i);
    const std::string context = "ops[" + std::to_string(i) + "]";
    if (entry.kind() != Json::Kind::kObject) {
      return Status::InvalidArgument(context + " must be an object");
    }
    MutationOp op;
    HYPRE_ASSIGN_OR_RETURN(std::string kind, entry.GetString("op", context));
    HYPRE_ASSIGN_OR_RETURN(op.table, entry.GetString("table", context));
    if (kind == "append") {
      op.kind = MutationOp::Kind::kAppend;
      HYPRE_ASSIGN_OR_RETURN(const Json* row, entry.GetArray("row", context));
      for (size_t c = 0; c < row->size(); ++c) {
        const Json& cell = row->at(c);
        switch (cell.kind()) {
          case Json::Kind::kNull:
            op.row.push_back(reldb::Value::Null());
            break;
          case Json::Kind::kInt:
            op.row.push_back(reldb::Value::Int(cell.AsInt()));
            break;
          case Json::Kind::kDouble:
            op.row.push_back(reldb::Value::Real(cell.AsDouble()));
            break;
          case Json::Kind::kString:
            op.row.push_back(reldb::Value::Str(cell.AsString()));
            break;
          default:
            return Status::InvalidArgument(
                context + ".row[" + std::to_string(c) +
                "]: cells must be null, number, or string");
        }
      }
    } else if (kind == "delete") {
      op.kind = MutationOp::Kind::kDelete;
      HYPRE_ASSIGN_OR_RETURN(int64_t row_id, entry.GetInt("row_id", context));
      if (row_id < 0) {
        return Status::InvalidArgument(context + ".row_id must be >= 0");
      }
      op.row_id = static_cast<reldb::RowId>(row_id);
    } else {
      return Status::InvalidArgument(context + ": unknown op '" + kind +
                                     "' (expected \"append\" or \"delete\")");
    }
    decoded.ops.push_back(std::move(op));
  }
  return decoded;
}

std::string EncodeError(int http_status, const Status& status) {
  Json error = Json::Object();
  error.Set("status", Json::Int(http_status));
  error.Set("code", Json::Str(StatusCodeToString(status.code())));
  error.Set("message", Json::Str(status.message()));
  Json root = Json::Object();
  root.Set("error", std::move(error));
  return root.Dump();
}

}  // namespace server
}  // namespace hypre
