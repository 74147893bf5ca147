//===- perfbench/src/Bench.cpp ----------------------------------------------=//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

using namespace perfbench;

double Rng::exponential(double Rate) { return -std::log1p(-unit()) / Rate; }

std::vector<size_t> Rng::permutation(size_t N) {
  std::vector<size_t> P(N);
  std::iota(P.begin(), P.end(), 0);
  for (size_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[below(I)]);
  return P;
}

namespace {

/// The ten Section 9 programs and their published goals, in the column
/// order of Table 3.
const std::pair<const char *, const char *> Programs[] = {
    {"KA", "play(any,any)"},     {"QU", "queens(any,any)"},
    {"PR", "test_press(any,any)"}, {"PE", "peephole_opt(any,any)"},
    {"CS", "cutstock(any)"},     {"DS", "schedule(any,any)"},
    {"PG", "pg(any)"},           {"RE", "read_term(any,any)"},
    {"BR", "browse(any)"},       {"PL", "test_plan(any)"},
};

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream S;
  S << In.rdbuf();
  Out = S.str();
  return true;
}

} // namespace

std::vector<Query> perfbench::loadQueries(const std::string &Dir,
                                          bool RequireGolden,
                                          std::string *Err) {
  std::vector<Query> Qs;
  for (const auto &[Key, Goal] : Programs) {
    std::string Source;
    std::string Path = Dir + "/programs/" + Key + ".pl";
    if (!readFile(Path, Source)) {
      *Err = "cannot read " + Path;
      return {};
    }
    for (const char *Variant : {"", "list", "int"}) {
      Query Q;
      Q.Program = Key;
      Q.Published = !*Variant;
      Q.Key = Q.Published ? Key : std::string(Key) + "#" + Variant;
      std::string G = Goal;
      if (!Q.Published)
        G.replace(G.find("any"), 3, Variant);
      Q.Job = {Q.Key, Source, G};
      Qs.push_back(std::move(Q));
    }
  }

  std::string Golden;
  std::string GoldenPath = Dir + "/golden.tsv";
  if (!readFile(GoldenPath, Golden)) {
    if (!RequireGolden)
      return Qs;
    *Err = "cannot read " + GoldenPath;
    return {};
  }
  std::istringstream Lines(Golden);
  std::string Line;
  std::map<std::string, std::vector<std::string>> Rows;
  while (std::getline(Lines, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::vector<std::string> Cols;
    std::istringstream Fields(Line);
    for (std::string F; std::getline(Fields, F, '\t');)
      Cols.push_back(F);
    if (Cols.size() != 4) {
      *Err = "malformed line in " + GoldenPath + ": " + Line;
      return {};
    }
    Rows[Cols[0]] = Cols;
  }
  for (Query &Q : Qs) {
    auto It = Rows.find(Q.Key);
    if (It == Rows.end() || It->second[1] != Q.Job.GoalSpec) {
      if (!RequireGolden)
        continue;
      *Err = "no golden digest for " + Q.Key + " " + Q.Job.GoalSpec;
      return {};
    }
    Q.TypeDigest = It->second[2];
    Q.PfDigest = It->second[3];
  }
  return Qs;
}

std::string perfbench::digest(const std::string &Fingerprint) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : Fingerprint) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

double perfbench::median(std::vector<double> V) {
  return V.empty() ? 0 : percentile(std::move(V), 0.5);
}

double perfbench::percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  size_t Idx = std::min(V.size() - 1, Rank == 0 ? 0 : Rank - 1);
  std::nth_element(V.begin(), V.begin() + static_cast<std::ptrdiff_t>(Idx),
                   V.end());
  return V[Idx];
}

double perfbench::mean(const std::vector<double> &V) {
  return V.empty() ? 0
                   : std::accumulate(V.begin(), V.end(), 0.0) /
                         static_cast<double>(V.size());
}

double perfbench::peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

int Trace::add(std::string Name, Clock::time_point Start,
               Clock::time_point End, int Parent, uint64_t Job, uint32_t Lane,
               bool Derived) {
  Spans.push_back({std::move(Name), Start, End, Parent, Job, Lane, Derived});
  return static_cast<int>(Spans.size() - 1);
}

std::map<std::string, Trace::SelfTime> Trace::selfTimes() const {
  std::vector<double> ChildMs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildMs[static_cast<size_t>(S.Parent)] += msBetween(S.Start, S.End);
  std::map<std::string, SelfTime> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    SelfTime &T = Out[Spans[I].Name];
    T.Ms += std::max(0.0, msBetween(Spans[I].Start, Spans[I].End) - ChildMs[I]);
    ++T.Count;
  }
  return Out;
}

bool Trace::writeChrome(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  Clock::time_point Origin = Spans.empty() ? Clock::time_point{} : Spans[0].Start;
  for (const Span &S : Spans)
    Origin = std::min(Origin, S.Start);
  std::fprintf(F, "{\"traceEvents\": [\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"job\": %llu, \"parent\": %d, \"derived\": %s}}%s\n",
                 S.Name.c_str(), msBetween(Origin, S.Start) * 1e3,
                 msBetween(S.Start, S.End) * 1e3, S.Lane,
                 static_cast<unsigned long long>(S.Job), S.Parent,
                 S.Derived ? "true" : "false",
                 I + 1 != Spans.size() ? "," : "");
  }
  std::fprintf(F, "], \"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(F) == 0;
}
