#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include <sys/wait.h>
#include <unistd.h>

namespace pb {

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : std::accumulate(xs.begin(), xs.end(), 0.0) / xs.size();
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  double pos = q * static_cast<double>(xs.size() - 1);
  std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

Tail tail_of(const std::vector<double>& xs, int max_percentile) {
  const double n = static_cast<double>(xs.size());
  int pct = max_percentile;
  while (pct > 50 && (100 - pct) * n < 1000) pct -= 5;
  return {quantile(xs, pct / 100.0), static_cast<double>(pct)};
}

int Tracer::open(const char* name, std::uint32_t op) {
  if (!enabled_) return -1;
  double now = us(Clock::now());
  spans_.push_back({name, now, now, current(), op});
  int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_us = us(Clock::now());
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

int Tracer::record(const char* name, std::uint32_t op, Clock::time_point start,
                   Clock::time_point end, int parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, us(start), us(end), parent, op});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<double> Tracer::self_ms() const {
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].push_back({s.start_us, s.end_us});
  }
  std::vector<double> out(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    double covered = 0, run_start = 0, run_end = -1;
    for (auto [a, b] : k) {
      a = std::max(a, spans_[i].start_us);
      b = std::min(b, spans_[i].end_us);
      if (b <= a) continue;
      if (a > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = a;
        run_end = b;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    out[i] = std::max(0.0, spans_[i].end_us - spans_[i].start_us - covered) / 1000.0;
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"op\":" << s.op
      << ",\"name\":\"" << s.name << "\",\"start_us\":" << json_number(s.start_us)
      << ",\"end_us\":" << json_number(s.end_us) << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]\n";
  return static_cast<bool>(f);
}

std::vector<OpLayers> layers_by_op(const Tracer& t) {
  std::vector<OpLayers> out;
  std::vector<double> self = t.self_ms();
  const auto& spans = t.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    if (s.op >= out.size()) out.resize(s.op + 1);
    std::string name = s.name;
    out[s.op].span_ms[name] += (s.end_us - s.start_us) / 1000.0;
    out[s.op].self_ms[name.substr(0, name.find('.'))] += self[i];
  }
  return out;
}

void put(Result& r, const std::string& name, double value, const char* unit,
         std::size_t samples) {
  r.metrics[name] = Metric{value, unit, samples};
}

void put_latency(Result& r, const std::vector<double>& op_ms) {
  put(r, "latency_p50_ms", median(op_ms), "ms", op_ms.size());
  Tail tl = tail_of(op_ms);
  put(r, "latency_tail_ms", tl.value, "ms", op_ms.size());
  r.properties["latency_tail_percentile"] = json_number(tl.percentile);
}

namespace {

bool ends_with(const std::string& s, const char* suffix) {
  std::size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

const char* unit_of(const std::string& metric) {
  if (ends_with(metric, "_ms")) return "ms";
  if (ends_with(metric, "_per_prim")) return "us";
  if (ends_with(metric, "_rate") || ends_with(metric, "_frac")) return "ratio";
  if (ends_with(metric, ".bytes")) return "bytes";
  return "count";
}

}  // namespace

void TraceReport::finish(Result& res, const Tracer& t, const RunOptions& o,
                         const std::vector<std::pair<const char*, const char*>>& span_metrics) {
  std::map<std::string, std::vector<double>> self;
  std::size_t ops = 0;
  for (const OpLayers& op : layers_by_op(t)) {
    if (op.span_ms.empty()) continue;
    ++ops;
    for (const auto& [span, metric] : span_metrics) {
      auto it = op.span_ms.find(span);
      if (it != op.span_ms.end()) layers.add(metric, it->second);
    }
    for (const auto& [layer, ms] : op.self_ms) self[layer].push_back(ms);
  }
  for (const auto& [name, xs] : layers.values) put(res, name, median(xs), unit_of(name), xs.size());
  for (const auto& [layer, xs] : self) put(res, "self." + layer + "_ms", mean(xs), "ms", xs.size());
  std::vector<double> diff;
  for (std::size_t i = 0; i < std::min(traced_ms.size(), untraced_ms.size()); ++i) {
    diff.push_back(traced_ms[i] - untraced_ms[i]);
  }
  const double base = median(untraced_ms);
  put(res, "trace.overhead_ms", median(diff), "ms", diff.size());
  put(res, "trace.overhead_frac", base > 0 ? median(diff) / base : 0, "ratio", diff.size());
  put(res, "trace.spans_per_op", ops ? static_cast<double>(t.spans().size()) / ops : 0, "count",
      ops);
  const std::string path =
      o.out_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed) + ".json";
  if (!t.write_json(path)) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

namespace {
double status_kb(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  std::size_t n = std::char_traits<char>::length(key);
  while (std::getline(f, line)) {
    if (line.compare(0, n, key) == 0) return std::atof(line.c_str() + n);
  }
  return 0;
}

bool write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t w = write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

std::vector<std::string> in_child(const std::function<std::vector<std::string>()>& make) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  std::fflush(nullptr);
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    close(fds[0]);
    int rc = 0;
    try {
      for (const std::string& s : make()) {
        std::uint64_t n = s.size();
        if (!write_all(fds[1], &n, sizeof n) || !write_all(fds[1], s.data(), s.size())) {
          rc = 4;
          break;
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: reference: %s\n", e.what());
      rc = 3;
    }
    close(fds[1]);
    _exit(rc);
  }
  close(fds[1]);
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    ssize_t r = read(fds[0], buf, sizeof buf);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    bytes.append(buf, static_cast<std::size_t>(r));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("the reference computation failed");
  }
  std::vector<std::string> out;
  std::size_t at = 0;
  while (at + sizeof(std::uint64_t) <= bytes.size()) {
    std::uint64_t n;
    std::memcpy(&n, bytes.data() + at, sizeof n);
    at += sizeof n;
    if (n > bytes.size() - at) throw std::runtime_error("truncated reference");
    out.push_back(bytes.substr(at, n));
    at += n;
  }
  return out;
}

double peak_rss_mb() { return status_kb("VmHWM:") / 1024.0; }

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace pb
