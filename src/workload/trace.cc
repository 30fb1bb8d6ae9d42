#include "workload/trace.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace maliva {

namespace {

// "-" stands in for an empty id in the token-delimited serialized form.
const char* IdToken(const std::string& id) { return id.empty() ? "-" : id.c_str(); }

std::string IdFromToken(const std::string& token) {
  return token == "-" ? std::string() : token;
}

Status BadId(const char* what, const std::string& id) {
  return Status::InvalidArgument(std::string("trace: ") + what + " id \"" + id +
                                 "\" must be whitespace-free and not \"-\"");
}

Status CheckId(const char* what, const std::string& id) {
  if (id == "-") return BadId(what, id);
  for (char c : id) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') return BadId(what, id);
  }
  return Status::OK();
}

// Unsigned fields are scanned as digit runs ("%20[0-9]"): %u/%llu would
// accept a sign and wrap "-1" to the type's maximum. Rejects runs that
// overflow `max`.
bool ParseUnsigned(const char* digits, unsigned long long max,
                   unsigned long long* out) {
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(digits, &end, 10);
  if (errno == ERANGE || *end != '\0' || value > max) return false;
  *out = value;
  return true;
}

bool ParseU32(const char* digits, uint32_t* out) {
  unsigned long long value = 0;
  if (!ParseUnsigned(digits, UINT32_MAX, &value)) return false;
  *out = static_cast<uint32_t>(value);
  return true;
}

// sscanf over a whole line: `fmt` converts one field per argument and ends
// in "%n"; the line parses only when every field converts and nothing
// trails them.
template <typename... Args>
bool ScanLine(const std::string& line, const char* fmt, Args*... fields) {
  int consumed = -1;
  return sscanf(line.c_str(), fmt, fields..., &consumed) ==
             static_cast<int>(sizeof...(fields)) &&
         consumed == static_cast<int>(line.size());
}

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}

}  // namespace

void Trace::Record(double arrival_ms, const std::string& scenario,
                   const std::string& strategy, double tau_ms,
                   double quality_floor, uint32_t query_index) {
  size_t stream_index = streams.size();
  for (size_t i = 0; i < streams.size(); ++i) {
    const TraceStream& s = streams[i];
    if (s.scenario == scenario && s.strategy == strategy && s.tau_ms == tau_ms &&
        s.quality_floor == quality_floor) {
      stream_index = i;
      break;
    }
  }
  if (stream_index == streams.size()) {
    TraceStream s;
    s.scenario = scenario;
    s.strategy = strategy;
    s.tau_ms = tau_ms;
    s.quality_floor = quality_floor;
    streams.push_back(std::move(s));
  }
  TraceStream& s = streams[stream_index];
  if (query_index >= s.num_queries) s.num_queries = query_index + 1;
  TraceRecord r;
  r.arrival_ms = arrival_ms;
  r.stream = static_cast<uint32_t>(stream_index);
  r.query_index = query_index;
  records.push_back(r);
}

Status Trace::Validate() const {
  for (const TraceStream& s : streams) {
    MALIVA_RETURN_NOT_OK(CheckId("scenario", s.scenario));
    MALIVA_RETURN_NOT_OK(CheckId("strategy", s.strategy));
    if (!std::isfinite(s.weight) || s.weight <= 0.0) {
      return Status::InvalidArgument("trace: stream weight must be finite and > 0");
    }
    if (!std::isfinite(s.tau_ms) || !std::isfinite(s.quality_floor)) {
      return Status::InvalidArgument("trace: stream tau/floor must be finite");
    }
    if (s.num_queries == 0) {
      return Status::InvalidArgument("trace: stream num_queries must be >= 1");
    }
  }
  double prev = 0.0;
  for (size_t i = 0; i < records.size(); ++i) {
    const TraceRecord& r = records[i];
    if (!std::isfinite(r.arrival_ms) || r.arrival_ms < 0.0) {
      return Status::InvalidArgument("trace: record " + std::to_string(i) +
                                     " arrival must be finite and >= 0");
    }
    if (r.arrival_ms < prev) {
      return Status::InvalidArgument("trace: record " + std::to_string(i) +
                                     " arrival decreases");
    }
    prev = r.arrival_ms;
    if (r.stream >= streams.size()) {
      return Status::InvalidArgument("trace: record " + std::to_string(i) +
                                     " references stream " + std::to_string(r.stream) +
                                     " of " + std::to_string(streams.size()));
    }
    if (r.query_index >= streams[r.stream].num_queries) {
      return Status::InvalidArgument("trace: record " + std::to_string(i) +
                                     " query_index outside its stream's domain");
    }
  }
  return Status::OK();
}

std::string Trace::Serialize() const {
  std::string out;
  out.reserve(64 + streams.size() * 96 + records.size() * 40);
  AppendF(&out, "maliva-trace v%d\n", kFormatVersion);
  AppendF(&out, "name %s\n", name.c_str());
  AppendF(&out, "seed %llu\n", static_cast<unsigned long long>(seed));
  AppendF(&out, "streams %zu\n", streams.size());
  for (const TraceStream& s : streams) {
    AppendF(&out, "stream %s %s %.17g %.17g %.17g %u\n", IdToken(s.scenario),
            IdToken(s.strategy), s.tau_ms, s.quality_floor, s.weight,
            s.num_queries);
  }
  AppendF(&out, "records %zu\n", records.size());
  for (const TraceRecord& r : records) {
    AppendF(&out, "%u %u %.17g\n", r.stream, r.query_index, r.arrival_ms);
  }
  out.append("end\n");
  return out;
}

Result<Trace> Trace::Deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  size_t lineno = 0;
  auto fail = [&lineno](const std::string& what) {
    return Status::InvalidArgument("trace parse: line " + std::to_string(lineno) +
                                   ": " + what);
  };
  auto next = [&in, &line, &lineno]() -> bool {
    if (!std::getline(in, line)) return false;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    ++lineno;
    return true;
  };

  if (!next() || line != "maliva-trace v1") {
    return fail("expected header \"maliva-trace v1\"");
  }
  Trace t;
  if (!next() || line.rfind("name ", 0) != 0) return fail("expected \"name ...\"");
  t.name = line.substr(5);
  char digits[2][21];
  unsigned long long seed = 0;
  if (!next() || !ScanLine(line, "seed %20[0-9]%n", digits[0]) ||
      !ParseUnsigned(digits[0], UINT64_MAX, &seed)) {
    return fail("expected \"seed <u64>\"");
  }
  t.seed = seed;

  unsigned long long num_streams = 0;
  if (!next() || !ScanLine(line, "streams %20[0-9]%n", digits[0]) ||
      !ParseUnsigned(digits[0], SIZE_MAX, &num_streams)) {
    return fail("expected \"streams <n>\"");
  }
  // Header counts are untrusted: every entry takes at least one line of
  // `text`, so its size bounds what an honest count can reserve.
  t.streams.reserve(std::min<size_t>(num_streams, text.size()));
  for (size_t i = 0; i < num_streams; ++i) {
    if (!next()) return fail("truncated stream table");
    char scenario[128], strategy[128];
    TraceStream s;
    if (!ScanLine(line, "stream %127s %127s %lg %lg %lg %10[0-9]%n", scenario,
                  strategy, &s.tau_ms, &s.quality_floor, &s.weight, digits[0]) ||
        !ParseU32(digits[0], &s.num_queries)) {
      return fail("malformed stream line");
    }
    s.scenario = IdFromToken(scenario);
    s.strategy = IdFromToken(strategy);
    t.streams.push_back(std::move(s));
  }

  unsigned long long num_records = 0;
  if (!next() || !ScanLine(line, "records %20[0-9]%n", digits[0]) ||
      !ParseUnsigned(digits[0], SIZE_MAX, &num_records)) {
    return fail("expected \"records <n>\"");
  }
  t.records.reserve(std::min<size_t>(num_records, text.size()));
  for (size_t i = 0; i < num_records; ++i) {
    if (!next()) return fail("truncated record list");
    TraceRecord r;
    if (!ScanLine(line, "%10[0-9] %10[0-9] %lg%n", digits[0], digits[1],
                  &r.arrival_ms) ||
        !ParseU32(digits[0], &r.stream) || !ParseU32(digits[1], &r.query_index)) {
      return fail("malformed record line");
    }
    t.records.push_back(r);
  }
  if (!next() || line != "end") return fail("expected trailing \"end\"");
  if (next()) return fail("unexpected text after \"end\"");
  MALIVA_RETURN_NOT_OK(t.Validate());
  return t;
}

Status Trace::SaveTo(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Internal("trace: cannot open " + path + " for writing");
  std::string text = Serialize();
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  if (!out) return Status::Internal("trace: short write to " + path);
  return Status::OK();
}

Result<Trace> Trace::LoadFrom(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("trace: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return Deserialize(text.str());
}

std::vector<size_t> Trace::RecordsPerStream() const {
  std::vector<size_t> counts(streams.size(), 0);
  for (const TraceRecord& r : records) {
    if (r.stream < counts.size()) ++counts[r.stream];
  }
  return counts;
}

std::map<std::string, size_t> Trace::RecordsPerScenario() const {
  std::map<std::string, size_t> counts;
  std::vector<size_t> per_stream = RecordsPerStream();
  for (size_t i = 0; i < streams.size(); ++i) {
    counts[streams[i].scenario] += per_stream[i];
  }
  return counts;
}

TraceBuilder::TraceBuilder(std::string name, uint64_t seed)
    : rng_(seed), arrivals_(1.0, seed ^ 0x9e3779b97f4a7c15ULL) {
  trace_.name = std::move(name);
  trace_.seed = seed;
}

TraceBuilder& TraceBuilder::AddStream(TraceStream stream) {
  assert(!spent_ && trace_.records.empty() &&
         "add all streams before the first phase");
  credits_.push_back(0.0);
  trace_.streams.push_back(std::move(stream));
  return *this;
}

size_t TraceBuilder::PickStream() {
  assert(!credits_.empty() && "TraceBuilder needs at least one stream");
  double total = 0.0;
  size_t best = 0;
  for (size_t i = 0; i < credits_.size(); ++i) {
    credits_[i] += trace_.streams[i].weight;
    total += trace_.streams[i].weight;
    if (credits_[i] > credits_[best]) best = i;
  }
  credits_[best] -= total;
  return best;
}

void TraceBuilder::Append(double arrival_ms, double phase_frac, bool drift) {
  size_t stream_index = PickStream();
  const TraceStream& s = trace_.streams[stream_index];
  uint32_t query_index;
  if (drift && s.num_queries > 1) {
    // Slide a half-domain window from the front of the stream's query domain
    // to the back: early records draw the "old" popular set, late records a
    // disjoint-ish "new" one.
    uint32_t window = s.num_queries / 2;
    if (window == 0) window = 1;
    uint32_t span = s.num_queries - window;
    uint32_t start = static_cast<uint32_t>(phase_frac * span + 0.5);
    if (start > span) start = span;
    query_index = start + static_cast<uint32_t>(rng_.UniformInt(0, window - 1));
  } else {
    query_index = static_cast<uint32_t>(rng_.UniformInt(0, s.num_queries - 1));
  }
  TraceRecord r;
  r.arrival_ms = arrival_ms;
  r.stream = static_cast<uint32_t>(stream_index);
  r.query_index = query_index;
  trace_.records.push_back(r);
}

TraceBuilder& TraceBuilder::SteadyPhase(double rate_qps, size_t count) {
  assert(!spent_);
  arrivals_.SetRateQps(rate_qps);
  for (size_t i = 0; i < count; ++i) Append(arrivals_.NextMs(), 0.0, false);
  return *this;
}

TraceBuilder& TraceBuilder::RampPhase(double start_qps, double end_qps,
                                      size_t count) {
  assert(!spent_);
  for (size_t i = 0; i < count; ++i) {
    double frac = count <= 1 ? 1.0 : static_cast<double>(i) / (count - 1);
    arrivals_.SetRateQps(start_qps + frac * (end_qps - start_qps));
    Append(arrivals_.NextMs(), frac, false);
  }
  return *this;
}

TraceBuilder& TraceBuilder::BurstPhase(size_t count) {
  assert(!spent_);
  for (size_t i = 0; i < count; ++i) Append(arrivals_.CurrentMs(), 0.0, false);
  return *this;
}

TraceBuilder& TraceBuilder::DriftPhase(double rate_qps, size_t count) {
  assert(!spent_);
  arrivals_.SetRateQps(rate_qps);
  for (size_t i = 0; i < count; ++i) {
    double frac = count <= 1 ? 1.0 : static_cast<double>(i) / (count - 1);
    Append(arrivals_.NextMs(), frac, true);
  }
  return *this;
}

TraceBuilder& TraceBuilder::GapMs(double ms) {
  assert(!spent_);
  arrivals_.AdvanceTo(arrivals_.CurrentMs() + ms);
  return *this;
}

Trace TraceBuilder::Build() {
  assert(!spent_ && "TraceBuilder::Build may only be called once");
  spent_ = true;
  assert(trace_.Validate().ok());
  return std::move(trace_);
}

}  // namespace maliva
