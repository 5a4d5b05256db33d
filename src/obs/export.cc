#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/error.h"

namespace brickx::obs {

#if BRICKX_OBS

namespace {

/// Fixed-format microseconds from virtual seconds. %.6f keeps picosecond
/// resolution and — being a pure function of the deterministic double —
/// renders identically across runs of the same Config.
std::string us(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", seconds * 1e6);
  return buf;
}

/// Round-trippable, deterministic double rendering for metrics.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

class EventSink {
 public:
  explicit EventSink(std::string* out) : out_(out) {}
  void event(const std::string& body) {
    *out_ += first_ ? "\n " : ",\n ";
    first_ = false;
    *out_ += body;
  }

 private:
  std::string* out_;
  bool first_ = true;
};

}  // namespace

std::string chrome_trace_json(const Session& s) {
  std::string out = "{\"traceEvents\":[";
  EventSink sink(&out);

  int max_ranks = 0;
  for (const auto& run : s.runs()) max_ranks = std::max(max_ranks, run.nranks);

  // Process metadata: one pid per rank.
  for (int r = 0; r < max_ranks; ++r) {
    sink.event("{\"ph\":\"M\",\"pid\":" + std::to_string(r) +
               ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":"
               "\"rank " +
               std::to_string(r) + "\"}}");
  }
  // Thread metadata: per run, a span track (tid 2k) and a net track
  // (tid 2k+1) so consecutive experiments in one session do not overlap.
  for (std::size_t k = 0; k < s.runs().size(); ++k) {
    const auto& run = s.runs()[k];
    const std::string span_tid = std::to_string(2 * k);
    const std::string net_tid = std::to_string(2 * k + 1);
    for (int r = 0; r < run.nranks; ++r) {
      const std::string pid = std::to_string(r);
      sink.event("{\"ph\":\"M\",\"pid\":" + pid + ",\"tid\":" + span_tid +
                 ",\"name\":\"thread_name\",\"args\":{\"name\":\"run " +
                 std::to_string(k) + " " + escape(run.label) + "\"}}");
      sink.event("{\"ph\":\"M\",\"pid\":" + pid + ",\"tid\":" + net_tid +
                 ",\"name\":\"thread_name\",\"args\":{\"name\":\"run " +
                 std::to_string(k) + " " + escape(run.label) + " net\"}}");
    }
  }

  std::int64_t flow_id = 0;
  for (std::size_t k = 0; k < s.runs().size(); ++k) {
    const auto& run = s.runs()[k];
    const std::string span_tid = std::to_string(2 * k);
    const std::string net_tid = std::to_string(2 * k + 1);

    // Spans, rank by rank, in recording order (deterministic: each RankLog
    // is appended only by its own rank thread on the virtual clock).
    for (int r = 0; r < run.nranks; ++r) {
      const std::string pid = std::to_string(r);
      for (const SpanEvent& ev : run.logs[static_cast<std::size_t>(r)]
                                     .spans()) {
        std::string body = "{\"ph\":\"X\",\"pid\":" + pid +
                           ",\"tid\":" + span_tid + ",\"cat\":\"" +
                           cat_name(ev.cat) + "\",\"name\":\"" +
                           escape(ev.name) + "\",\"ts\":" + us(ev.t0) +
                           ",\"dur\":" + us(ev.t1 - ev.t0);
        if (ev.step >= 0)
          body += ",\"args\":{\"step\":" + std::to_string(ev.step) + "}";
        body += "}";
        sink.event(body);
      }
    }

    // Messages: a slice on the sender's net track for the wire time, a
    // zero-duration arrival marker on the receiver's, and a flow arrow
    // (s/f) connecting them. Sorted by departure, then (src, dst, tag), so
    // the export order is independent of rank-thread interleaving.
    std::vector<FlowEvent> flows;
    for (int r = 0; r < run.nranks; ++r) {
      const auto& fs = run.logs[static_cast<std::size_t>(r)].flows();
      flows.insert(flows.end(), fs.begin(), fs.end());
    }
    std::sort(flows.begin(), flows.end(),
              [](const FlowEvent& a, const FlowEvent& b) {
                if (a.depart != b.depart) return a.depart < b.depart;
                if (a.src != b.src) return a.src < b.src;
                if (a.dst != b.dst) return a.dst < b.dst;
                return a.tag < b.tag;
              });
    for (const FlowEvent& f : flows) {
      const std::string id = std::to_string(flow_id++);
      const std::string label = "msg " + std::to_string(f.src) + "->" +
                                std::to_string(f.dst);
      const std::string args = ",\"args\":{\"tag\":" + std::to_string(f.tag) +
                               ",\"bytes\":" + std::to_string(f.bytes) + "}";
      sink.event("{\"ph\":\"X\",\"pid\":" + std::to_string(f.src) +
                 ",\"tid\":" + net_tid + ",\"cat\":\"msg\",\"name\":\"" +
                 label + "\",\"ts\":" + us(f.depart) +
                 ",\"dur\":" + us(f.arrive - f.depart) + args + "}");
      sink.event("{\"ph\":\"s\",\"pid\":" + std::to_string(f.src) +
                 ",\"tid\":" + net_tid + ",\"cat\":\"msg\",\"name\":\"" +
                 label + "\",\"id\":" + id + ",\"ts\":" + us(f.depart) + "}");
      sink.event("{\"ph\":\"X\",\"pid\":" + std::to_string(f.dst) +
                 ",\"tid\":" + net_tid + ",\"cat\":\"msg\",\"name\":\"arrive " +
                 std::to_string(f.src) + "->" + std::to_string(f.dst) +
                 "\",\"ts\":" + us(f.arrive) + ",\"dur\":0.000000" + args +
                 "}");
      sink.event("{\"ph\":\"f\",\"bp\":\"e\",\"pid\":" +
                 std::to_string(f.dst) + ",\"tid\":" + net_tid +
                 ",\"cat\":\"msg\",\"name\":\"" + label + "\",\"id\":" + id +
                 ",\"ts\":" + us(f.arrive) + "}");
    }
  }

  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

namespace {

std::string metric_json(const Metric& m) {
  switch (m.kind) {
    case MetricKind::Counter:
      return "{\"kind\":\"counter\",\"value\":" + std::to_string(m.value) +
             "}";
    case MetricKind::Gauge:
      return "{\"kind\":\"gauge\",\"value\":" + num(m.gauge) + "}";
    case MetricKind::Hist:
      return "{\"kind\":\"hist\",\"count\":" + std::to_string(m.hist.count()) +
             ",\"min\":" + num(m.hist.min()) + ",\"avg\":" + num(m.hist.avg()) +
             ",\"max\":" + num(m.hist.max()) +
             ",\"sigma\":" + num(m.hist.sigma()) + "}";
  }
  return "{}";
}

}  // namespace

std::string metrics_json(const Session& s) {
  std::string out = "{\"version\":1,\"runs\":[";
  for (std::size_t k = 0; k < s.runs().size(); ++k) {
    const auto& run = s.runs()[k];
    out += k == 0 ? "\n " : ",\n ";
    out += "{\"label\":\"" + escape(run.label) +
           "\",\"nranks\":" + std::to_string(run.nranks) + ",\"metrics\":{";
    const auto merged = merged_metrics(run.logs);
    bool first = true;
    for (const auto& [name, m] : merged) {
      out += first ? "\n  " : ",\n  ";
      first = false;
      out += "\"" + escape(name) + "\":" + metric_json(m);
    }
    out += first ? "}}" : "\n }}";
  }
  out += s.runs().empty() ? "]}\n" : "\n]}\n";
  return out;
}

namespace {

/// RFC-4180 CSV field: quoted (with doubled inner quotes) only when the
/// value contains a delimiter, so labels like "MemMap/um,p=2M" survive and
/// plain fields stay byte-identical to the unescaped form.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string metrics_csv(const Session& s) {
  std::string out = "run,label,metric,kind,value,count,min,avg,max,sigma\n";
  for (std::size_t k = 0; k < s.runs().size(); ++k) {
    const auto& run = s.runs()[k];
    const auto merged = merged_metrics(run.logs);
    for (const auto& [name, m] : merged) {
      out += std::to_string(k) + "," + csv_field(run.label) + "," +
             csv_field(name) + ",";
      switch (m.kind) {
        case MetricKind::Counter:
          out += "counter," + std::to_string(m.value) + ",,,,,";
          break;
        case MetricKind::Gauge:
          out += "gauge," + num(m.gauge) + ",,,,,";
          break;
        case MetricKind::Hist:
          out += "hist,," + std::to_string(m.hist.count()) + "," +
                 num(m.hist.min()) + "," + num(m.hist.avg()) + "," +
                 num(m.hist.max()) + "," + num(m.hist.sigma());
          break;
      }
      out += "\n";
    }
  }
  return out;
}

#endif  // BRICKX_OBS

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) brickx::fail("cannot open for writing: " + path);
  f.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!f) brickx::fail("short write: " + path);
}

void write_chrome_trace(const Session& s, const std::string& path) {
  write_file(path, chrome_trace_json(s));
}

void write_metrics(const Session& s, const std::string& path) {
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  write_file(path, csv ? metrics_csv(s) : metrics_json(s));
}

}  // namespace brickx::obs
