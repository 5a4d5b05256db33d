// Artifact-contract check (plain main, registered with ctest as
// tune_artifact_schema): validates the committed tuned-config artifact
// (tests/data/tuned_config.json) against the fixed brickx-tuned-config-v2
// shape — top-level sections, per-section key types, and the config-hash
// format — then runs the brickx_tune binary twice on a small problem with
// *different* worker-thread counts and requires the two emitted artifacts
// to be byte-identical (the tuner's determinism contract, end to end
// through the CLI).
//
// Usage: tune_schema_validate <brickx_tune-binary> <tuned_config.json>
//
// The JSON parser lives in json_mini.h, shared with the other validators.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "json_mini.h"

namespace {

using jsonmini::Parser;
using jsonmini::Value;
using jsonmini::read_file;

// ---- validation -----------------------------------------------------------

int g_errors = 0;

void problem(const std::string& what) {
  std::fprintf(stderr, "schema violation: %s\n", what.c_str());
  ++g_errors;
}

const Value* section(const Value& doc, const char* key) {
  const Value* v = doc.find(key);
  if (v == nullptr || !v->is(Value::Type::Object)) {
    problem(std::string("missing object section '") + key + "'");
    return nullptr;
  }
  return v;
}

void want_str(const Value& obj, const char* where, const char* key) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is(Value::Type::String) || v->str.empty())
    problem(std::string(where) + " lacks non-empty string '" + key + "'");
}

void want_num(const Value& obj, const char* where, const char* key) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is(Value::Type::Number))
    problem(std::string(where) + " lacks numeric '" + key + "'");
}

void want_bool(const Value& obj, const char* where, const char* key) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is(Value::Type::Bool))
    problem(std::string(where) + " lacks boolean '" + key + "'");
}

void want_vec3(const Value& obj, const char* where, const char* key) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is(Value::Type::Array) || v->arr->size() != 3) {
    problem(std::string(where) + " lacks 3-element array '" + key + "'");
    return;
  }
  for (const Value& e : *v->arr)
    if (!e.is(Value::Type::Number) || e.number < 1.0)
      problem(std::string(where) + "." + key +
              " has a non-positive / non-numeric element");
}

void validate_artifact(const Value& doc, const char* label) {
  const Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is(Value::Type::String) ||
      schema->str != "brickx-tuned-config-v2")
    problem(std::string(label) +
            ": 'schema' must be the string \"brickx-tuned-config-v2\"");

  if (const Value* p = section(doc, "problem")) {
    want_str(*p, "problem", "machine");
    want_vec3(*p, "problem", "rank_dims");
    want_vec3(*p, "problem", "subdomain");
    want_num(*p, "problem", "ghost");
    want_bool(*p, "problem", "use125");
    want_str(*p, "problem", "method");
    want_str(*p, "problem", "gpu");
    want_num(*p, "problem", "timesteps");
    want_num(*p, "problem", "warmup_exchanges");
    want_num(*p, "problem", "ranks_per_node");
    want_str(*p, "problem", "fabric");
    want_str(*p, "problem", "transport");
    want_bool(*p, "problem", "overlap");
  }

  if (const Value* c = section(doc, "choice")) {
    want_str(*c, "choice", "layout");
    want_str(*c, "choice", "mapping");
    want_num(*c, "choice", "brick");
    want_num(*c, "choice", "page_size");
    const Value* order = c->find("layout_order");
    if (order == nullptr || !order->is(Value::Type::Array)) {
      problem("choice lacks array 'layout_order'");
    } else {
      for (const Value& e : *order->arr)
        if (!e.is(Value::Type::Number) || e.number < 0.0)
          problem("choice.layout_order has a negative / non-numeric mask");
    }
  }

  if (const Value* pr = section(doc, "predicted")) {
    want_num(*pr, "predicted", "total_seconds");
    want_num(*pr, "predicted", "comm_per_step");
    want_num(*pr, "predicted", "gstencils");
  }

  if (const Value* s = section(doc, "search")) {
    want_num(*s, "search", "candidates");
    want_num(*s, "search", "distinct");
    const Value* hash = s->find("config_hash");
    if (hash == nullptr || !hash->is(Value::Type::String)) {
      problem("search lacks string 'config_hash'");
    } else {
      const std::string& h = hash->str;
      bool ok = h.size() == 18 && h[0] == '0' && h[1] == 'x';
      for (std::size_t i = 2; ok && i < h.size(); ++i)
        ok = std::isxdigit(static_cast<unsigned char>(h[i])) != 0;
      if (!ok)
        problem("search.config_hash is not \"0x\" + 16 hex digits: '" + h +
                "'");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <brickx_tune-binary> <tuned_config.json>\n",
                 argv[0]);
    return 2;
  }
  const std::string tuner = argv[1];

  // 1. The committed artifact conforms to the v1 shape.
  const Value committed = Parser(read_file(argv[2])).parse();
  validate_artifact(committed, "committed artifact");

  // 2. Determinism through the CLI: the same problem tuned with different
  //    worker-thread counts must emit byte-identical artifacts.
  const std::string out1 = "tune_schema_check_1.json";
  const std::string out2 = "tune_schema_check_2.json";
  const std::string base = "\"" + tuner +
                           "\" --machine=theta -g 32 -n 4 --rpn=2 "
                           "--fabric=flat --steps=2 --layout-budget=50";
  const std::string cmd1 = base + " --threads=1 --out=" + out1 + " > /dev/null";
  const std::string cmd2 = base + " --threads=3 --out=" + out2 + " > /dev/null";
  std::printf("running: %s\n", cmd1.c_str());
  if (std::system(cmd1.c_str()) != 0) {
    std::fprintf(stderr, "brickx_tune invocation failed\n");
    return 2;
  }
  std::printf("running: %s\n", cmd2.c_str());
  if (std::system(cmd2.c_str()) != 0) {
    std::fprintf(stderr, "brickx_tune invocation failed\n");
    return 2;
  }
  const std::string bytes1 = read_file(out1);
  const std::string bytes2 = read_file(out2);
  if (bytes1.empty()) problem("1-thread run wrote an empty artifact");
  if (bytes1 != bytes2)
    problem("artifacts differ across --threads=1 / --threads=3 — the tuner "
            "lost byte-determinism");

  // The fresh artifact must conform too (catches emit-side drift the
  // committed file can't see).
  validate_artifact(Parser(bytes1).parse(), "fresh artifact");

  if (g_errors != 0) {
    std::fprintf(stderr, "%d schema violation(s)\n", g_errors);
    return 1;
  }
  std::printf("ok: %s conforms; CLI re-tune is byte-deterministic\n", argv[2]);
  return 0;
}
