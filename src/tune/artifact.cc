#include "tune/artifact.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "common/error.h"
#include "core/layout.h"

namespace brickx::tune {

const char* gpu_name(harness::GpuMode g) {
  switch (g) {
    case harness::GpuMode::None:
      return "none";
    case harness::GpuMode::CudaAware:
      return "cuda-aware";
    case harness::GpuMode::Unified:
      return "unified";
    case harness::GpuMode::Staged:
      return "staged";
  }
  return "?";
}

std::optional<harness::GpuMode> parse_gpu(std::string_view s) {
  if (s == "none") return harness::GpuMode::None;
  if (s == "cuda-aware") return harness::GpuMode::CudaAware;
  if (s == "unified") return harness::GpuMode::Unified;
  if (s == "staged") return harness::GpuMode::Staged;
  return std::nullopt;
}

std::optional<harness::Method> parse_method(std::string_view s) {
  using harness::Method;
  for (Method m : {Method::Yask, Method::MpiTypes, Method::Basic,
                   Method::Layout, Method::MemMap, Method::Shift,
                   Method::Network})
    if (s == harness::method_name(m)) return m;
  return std::nullopt;
}

std::optional<model::Machine> machine_by_name(std::string_view s) {
  for (const model::Machine& m :
       {model::theta(), model::summit(), model::summit_future()})
    if (s == m.name) return m;
  return std::nullopt;
}

harness::Config problem_config(const TunedArtifact& art) {
  const auto m = machine_by_name(art.machine);
  BX_CHECK(m.has_value(), "tuned artifact names an unknown machine preset");
  harness::Config cfg;
  cfg.machine = *m;
  cfg.machine.net.ranks_per_node = art.ranks_per_node;
  cfg.rank_dims = art.rank_dims;
  cfg.subdomain = art.subdomain;
  cfg.ghost = art.ghost;
  cfg.use125 = art.use125;
  cfg.method = art.method;
  cfg.gpu = art.gpu;
  cfg.timesteps = art.timesteps;
  cfg.warmup_exchanges = art.warmup_exchanges;
  cfg.fabric = art.fabric;
  cfg.transport = art.transport;
  cfg.overlap = art.overlap;
  // The tuner evaluates the cost model; math validation is the tests' job.
  cfg.execute_kernels = false;
  return cfg;
}

void apply_choice(const TunedArtifact& art, harness::Config& cfg) {
  LayoutSpec layout;
  layout.order.reserve(art.layout_order.size());
  for (std::uint64_t raw : art.layout_order)
    layout.order.push_back(BitSet::from_raw(raw));
  BX_CHECK(layout.order.empty() || layout.valid(3),
           "tuned artifact carries an invalid layout permutation");
  cfg.layout = std::move(layout);
  cfg.mapping = art.mapping;
  cfg.brick = art.brick;
  cfg.page_size = art.page_size;
}

harness::Config tuned_config(const TunedArtifact& art) {
  harness::Config cfg = problem_config(art);
  apply_choice(art, cfg);
  return cfg;
}

TunedArtifact artifact_from(const harness::Config& problem) {
  TunedArtifact art;
  art.machine = problem.machine.name;
  art.rank_dims = problem.rank_dims;
  art.subdomain = problem.subdomain;
  art.ghost = problem.ghost;
  art.use125 = problem.use125;
  art.method = problem.method;
  art.gpu = problem.gpu;
  art.timesteps = problem.timesteps;
  art.warmup_exchanges = problem.warmup_exchanges;
  art.ranks_per_node = problem.machine.net.ranks_per_node;
  art.fabric = problem.fabric;
  art.transport = problem.transport;
  art.overlap = problem.overlap;
  art.mapping = problem.mapping;
  art.brick = problem.brick;
  art.page_size = problem.page_size;
  return art;
}

namespace {

/// %.17g: the shortest form strtod round-trips bit-exactly for every
/// finite double (same convention as the obs exporters).
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt_vec(const Vec3& v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "[%lld, %lld, %lld]",
                static_cast<long long>(v[0]), static_cast<long long>(v[1]),
                static_cast<long long>(v[2]));
  return buf;
}

}  // namespace

std::string to_json(const TunedArtifact& art) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"" << kArtifactSchema << "\",\n";
  os << "  \"problem\": {\n";
  os << "    \"machine\": \"" << art.machine << "\",\n";
  os << "    \"rank_dims\": " << fmt_vec(art.rank_dims) << ",\n";
  os << "    \"subdomain\": " << fmt_vec(art.subdomain) << ",\n";
  os << "    \"ghost\": " << art.ghost << ",\n";
  os << "    \"use125\": " << (art.use125 ? "true" : "false") << ",\n";
  os << "    \"method\": \"" << harness::method_name(art.method) << "\",\n";
  os << "    \"gpu\": \"" << gpu_name(art.gpu) << "\",\n";
  os << "    \"timesteps\": " << art.timesteps << ",\n";
  os << "    \"warmup_exchanges\": " << art.warmup_exchanges << ",\n";
  os << "    \"ranks_per_node\": " << art.ranks_per_node << ",\n";
  os << "    \"fabric\": \"" << netsim::fabric_name(art.fabric) << "\",\n";
  os << "    \"transport\": \"" << transport::kind_name(art.transport)
     << "\",\n";
  os << "    \"overlap\": " << (art.overlap ? "true" : "false") << "\n";
  os << "  },\n";
  os << "  \"choice\": {\n";
  os << "    \"layout\": \"" << art.layout_name << "\",\n";
  os << "    \"layout_order\": [";
  for (std::size_t i = 0; i < art.layout_order.size(); ++i)
    os << (i ? ", " : "") << art.layout_order[i];
  os << "],\n";
  os << "    \"mapping\": \"" << netsim::map_name(art.mapping) << "\",\n";
  os << "    \"brick\": " << art.brick << ",\n";
  os << "    \"page_size\": " << art.page_size << "\n";
  os << "  },\n";
  os << "  \"predicted\": {\n";
  os << "    \"total_seconds\": " << fmt_double(art.predicted_total_seconds)
     << ",\n";
  os << "    \"comm_per_step\": " << fmt_double(art.predicted_comm_per_step)
     << ",\n";
  os << "    \"gstencils\": " << fmt_double(art.predicted_gstencils) << "\n";
  os << "  },\n";
  os << "  \"search\": {\n";
  os << "    \"candidates\": " << art.candidates << ",\n";
  os << "    \"distinct\": " << art.distinct << ",\n";
  {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, art.config_hash);
    os << "    \"config_hash\": \"" << buf << "\"\n";
  }
  os << "  }\n";
  os << "}\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Minimal non-aborting JSON reader (objects / arrays / strings / numbers /
// bools). tests/json_mini.h is deliberately not reused here: it exits the
// process on malformed input, which is the right contract for a schema
// validator but not for a library that must report bad files gracefully.

namespace {

struct JValue {
  enum class Kind { Null, Bool, Num, Str, Arr, Obj } kind = Kind::Null;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JValue> arr;
  std::map<std::string, JValue> obj;
};

class JParser {
 public:
  explicit JParser(std::string_view s) : s_(s) {}

  std::optional<JValue> parse() {
    auto v = value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool lit(std::string_view w) {
    if (s_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  std::optional<std::string> string() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return std::nullopt;
        char e = s_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          default: return std::nullopt;  // escapes we never emit
        }
      } else {
        out.push_back(c);
      }
    }
    if (pos_ >= s_.size()) return std::nullopt;
    ++pos_;  // closing quote
    return out;
  }

  std::optional<JValue> value() {
    skip_ws();
    if (pos_ >= s_.size()) return std::nullopt;
    JValue v;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      v.kind = JValue::Kind::Obj;
      skip_ws();
      if (eat('}')) return v;
      while (true) {
        skip_ws();
        auto key = string();
        if (!key || !eat(':')) return std::nullopt;
        auto item = value();
        if (!item) return std::nullopt;
        v.obj.emplace(std::move(*key), std::move(*item));
        if (eat(',')) continue;
        if (eat('}')) return v;
        return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos_;
      v.kind = JValue::Kind::Arr;
      skip_ws();
      if (eat(']')) return v;
      while (true) {
        auto item = value();
        if (!item) return std::nullopt;
        v.arr.push_back(std::move(*item));
        if (eat(',')) continue;
        if (eat(']')) return v;
        return std::nullopt;
      }
    }
    if (c == '"') {
      auto str = string();
      if (!str) return std::nullopt;
      v.kind = JValue::Kind::Str;
      v.str = std::move(*str);
      return v;
    }
    if (lit("true")) {
      v.kind = JValue::Kind::Bool;
      v.b = true;
      return v;
    }
    if (lit("false")) {
      v.kind = JValue::Kind::Bool;
      v.b = false;
      return v;
    }
    if (lit("null")) return v;
    // Number: strtod gives the bit-exact inverse of %.17g.
    char* end = nullptr;
    const std::string tail(s_.substr(pos_));
    v.num = std::strtod(tail.c_str(), &end);
    if (end == tail.c_str()) return std::nullopt;
    pos_ += static_cast<std::size_t>(end - tail.c_str());
    v.kind = JValue::Kind::Num;
    return v;
  }
};

const JValue* field(const JValue& obj, const char* key, JValue::Kind kind) {
  if (obj.kind != JValue::Kind::Obj) return nullptr;
  const auto it = obj.obj.find(key);
  if (it == obj.obj.end() || it->second.kind != kind) return nullptr;
  return &it->second;
}

bool get_i64(const JValue& obj, const char* key, std::int64_t* out) {
  const JValue* v = field(obj, key, JValue::Kind::Num);
  if (v == nullptr) return false;
  *out = static_cast<std::int64_t>(v->num);
  return static_cast<double>(*out) == v->num;  // reject non-integers
}

bool get_bool(const JValue& obj, const char* key, bool* out) {
  const JValue* v = field(obj, key, JValue::Kind::Bool);
  if (v == nullptr) return false;
  *out = v->b;
  return true;
}

bool get_double(const JValue& obj, const char* key, double* out) {
  const JValue* v = field(obj, key, JValue::Kind::Num);
  if (v == nullptr) return false;
  *out = v->num;
  return true;
}

bool get_str(const JValue& obj, const char* key, std::string* out) {
  const JValue* v = field(obj, key, JValue::Kind::Str);
  if (v == nullptr) return false;
  *out = v->str;
  return true;
}

bool get_vec(const JValue& obj, const char* key, Vec3* out) {
  const JValue* v = field(obj, key, JValue::Kind::Arr);
  if (v == nullptr || v->arr.size() != 3) return false;
  for (int a = 0; a < 3; ++a) {
    if (v->arr[static_cast<std::size_t>(a)].kind != JValue::Kind::Num)
      return false;
    (*out)[a] = static_cast<std::int64_t>(
        v->arr[static_cast<std::size_t>(a)].num);
  }
  return true;
}

}  // namespace

std::optional<TunedArtifact> from_json(std::string_view text) {
  auto root = JParser(text).parse();
  if (!root) return std::nullopt;
  std::string schema;
  if (!get_str(*root, "schema", &schema) || schema != kArtifactSchema)
    return std::nullopt;
  const JValue* problem = field(*root, "problem", JValue::Kind::Obj);
  const JValue* choice = field(*root, "choice", JValue::Kind::Obj);
  const JValue* predicted = field(*root, "predicted", JValue::Kind::Obj);
  const JValue* search = field(*root, "search", JValue::Kind::Obj);
  if (!problem || !choice || !predicted || !search) return std::nullopt;

  TunedArtifact art;
  std::string method, gpu, fabric, transport_name, mapping;
  std::int64_t timesteps = 0, warmup = 0, rpn = 0, page = 0;
  if (!get_str(*problem, "machine", &art.machine) ||
      !get_vec(*problem, "rank_dims", &art.rank_dims) ||
      !get_vec(*problem, "subdomain", &art.subdomain) ||
      !get_i64(*problem, "ghost", &art.ghost) ||
      !get_bool(*problem, "use125", &art.use125) ||
      !get_str(*problem, "method", &method) ||
      !get_str(*problem, "gpu", &gpu) ||
      !get_i64(*problem, "timesteps", &timesteps) ||
      !get_i64(*problem, "warmup_exchanges", &warmup) ||
      !get_i64(*problem, "ranks_per_node", &rpn) ||
      !get_str(*problem, "fabric", &fabric) ||
      !get_str(*problem, "transport", &transport_name) ||
      !get_bool(*problem, "overlap", &art.overlap))
    return std::nullopt;
  if (!machine_by_name(art.machine)) return std::nullopt;
  const auto m = parse_method(method);
  const auto g = parse_gpu(gpu);
  const auto f = netsim::parse_fabric(fabric);
  if (!m || !g || !f) return std::nullopt;
  art.method = *m;
  art.gpu = *g;
  art.fabric = *f;
  if (!transport::parse_kind(transport_name, &art.transport))
    return std::nullopt;
  art.timesteps = static_cast<int>(timesteps);
  art.warmup_exchanges = static_cast<int>(warmup);
  art.ranks_per_node = static_cast<int>(rpn);
  if (art.timesteps < 1 || art.warmup_exchanges < 0 || art.ranks_per_node < 1)
    return std::nullopt;

  if (!get_str(*choice, "layout", &art.layout_name) ||
      !get_str(*choice, "mapping", &mapping) ||
      !get_i64(*choice, "brick", &art.brick) ||
      !get_i64(*choice, "page_size", &page) ||
      page < 0)
    return std::nullopt;
  art.page_size = static_cast<std::size_t>(page);
  const auto mk = netsim::parse_mapping(mapping);
  if (!mk) return std::nullopt;
  art.mapping = *mk;
  const JValue* order = field(*choice, "layout_order", JValue::Kind::Arr);
  if (order == nullptr) return std::nullopt;
  LayoutSpec check_layout;
  for (const JValue& e : order->arr) {
    if (e.kind != JValue::Kind::Num || e.num < 0) return std::nullopt;
    const std::uint64_t raw = static_cast<std::uint64_t>(e.num);
    if (static_cast<double>(raw) != e.num || raw >= (1ull << 32))
      return std::nullopt;  // not an exact in-range mask
    art.layout_order.push_back(raw);
    check_layout.order.push_back(BitSet::from_raw(raw));
  }
  if (!art.layout_order.empty() && !check_layout.valid(3))
    return std::nullopt;

  if (!get_double(*predicted, "total_seconds", &art.predicted_total_seconds) ||
      !get_double(*predicted, "comm_per_step", &art.predicted_comm_per_step) ||
      !get_double(*predicted, "gstencils", &art.predicted_gstencils))
    return std::nullopt;

  std::string hash;
  if (!get_i64(*search, "candidates", &art.candidates) ||
      !get_i64(*search, "distinct", &art.distinct) ||
      !get_str(*search, "config_hash", &hash))
    return std::nullopt;
  if (hash.size() != 18 || hash[0] != '0' || hash[1] != 'x')
    return std::nullopt;
  char* end = nullptr;
  art.config_hash = std::strtoull(hash.c_str() + 2, &end, 16);
  if (end != hash.c_str() + hash.size()) return std::nullopt;
  return art;
}

std::optional<TunedArtifact> load_artifact(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_json(buf.str());
}

bool save_artifact(const TunedArtifact& art, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << to_json(art);
  return static_cast<bool>(out);
}

}  // namespace brickx::tune
