#include "serve/request.hpp"

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

namespace lgg::serve {

namespace {

std::vector<std::string> split_ws(std::string_view line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
    if (j > i) out.emplace_back(line.substr(i, j - i));
    i = j;
  }
  return out;
}

std::uint64_t parse_u64(const std::string& tok, std::string_view line) {
  const auto v = util::parse_u64(tok);
  LGG_CHECK(v.has_value(), "serve: bad integer '" + tok + "' in request: " +
                               std::string(line));
  return *v;
}

graph::Vertex parse_vertex(const std::string& tok, std::string_view line) {
  const std::uint64_t v = parse_u64(tok, line);
  LGG_CHECK(v <= std::numeric_limits<graph::Vertex>::max(),
            "serve: vertex id out of range: " + std::string(line));
  return static_cast<graph::Vertex>(v);
}

double parse_f64(const std::string& tok, std::string_view line) {
  const auto v = util::parse_f64(tok);
  LGG_CHECK(v.has_value(), "serve: bad number '" + tok + "' in request: " +
                               std::string(line));
  return *v;
}

}  // namespace

const char* query_kind_name(QueryKind k) noexcept {
  switch (k) {
    case QueryKind::kTriangles:
      return "triangles";
    case QueryKind::kKClique:
      return "kclique";
    case QueryKind::kDoulion:
      return "doulion";
    case QueryKind::kWedges:
      return "wedges";
    case QueryKind::kBfs:
      return "bfs";
    case QueryKind::kCc:
      return "cc";
  }
  return "?";
}

const char* status_name(Status s) noexcept {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kRejected:
      return "rejected";
    case Status::kError:
      return "error";
  }
  return "?";
}

std::string canonical_query(const Request& r) {
  std::ostringstream os;
  os << query_kind_name(r.kind);
  switch (r.kind) {
    case QueryKind::kTriangles:
      break;
    case QueryKind::kKClique:
      os << " k=" << r.k;
      break;
    case QueryKind::kDoulion:
      os << " p=" << obs::format_number(r.p) << " seed=" << r.seed;
      break;
    case QueryKind::kWedges:
      os << " samples=" << r.samples << " seed=" << r.seed;
      break;
    case QueryKind::kBfs:
      os << " source=" << r.vertex;
      break;
    case QueryKind::kCc:
      os << " v=" << r.vertex;
      break;
  }
  return os.str();
}

std::string pass_key(const Request& r) {
  switch (r.kind) {
    case QueryKind::kTriangles:
      return "triangles";
    case QueryKind::kKClique:
      return "kclique/" + std::to_string(r.k);
    case QueryKind::kDoulion:
    case QueryKind::kWedges:
      // Estimates merge only when the full canonical (p / samples AND
      // seed) matches: different seeds are different results by contract.
      return canonical_query(r);
    case QueryKind::kBfs:
      return "bfs/" + std::to_string(r.vertex);
    case QueryKind::kCc:
      // Every cc query shares the one clustering_coefficients sweep.
      return "cc";
  }
  return "?";
}

std::string Response::line() const {
  std::ostringstream os;
  os << "id=" << id << " tenant=" << tenant << " graph=" << graph
     << " query=\"" << canonical << "\" status=" << status_name(status)
     << " " << body;
  return os.str();
}

Request parse_request_line(std::string_view line) {
  const std::vector<std::string> tok = split_ws(line);
  LGG_CHECK(tok.size() >= 3,
            "serve: request needs '<tenant> <graph> <query> ...': " +
                std::string(line));
  Request r;
  r.tenant = tok[0];
  r.graph = tok[1];
  const std::string& q = tok[2];
  const auto want = [&](std::size_t argc) {
    LGG_CHECK(tok.size() == 3 + argc,
              "serve: query '" + q + "' takes " + std::to_string(argc) +
                  " argument(s): " + std::string(line));
  };
  if (q == "triangles") {
    r.kind = QueryKind::kTriangles;
    want(0);
  } else if (q == "kclique") {
    r.kind = QueryKind::kKClique;
    want(1);
    const std::uint64_t k = parse_u64(tok[3], line);
    LGG_CHECK(k >= 1 && k <= 16, "serve: kclique k out of range [1,16]: " +
                                     std::string(line));
    r.k = static_cast<std::uint32_t>(k);
  } else if (q == "doulion") {
    r.kind = QueryKind::kDoulion;
    want(2);
    r.p = parse_f64(tok[3], line);
    LGG_CHECK(r.p > 0.0 && r.p <= 1.0,
              "serve: doulion p out of range (0,1]: " + std::string(line));
    r.seed = parse_u64(tok[4], line);
  } else if (q == "wedges") {
    r.kind = QueryKind::kWedges;
    want(2);
    r.samples = parse_u64(tok[3], line);
    LGG_CHECK(r.samples > 0,
              "serve: wedges needs samples > 0: " + std::string(line));
    r.seed = parse_u64(tok[4], line);
  } else if (q == "bfs") {
    r.kind = QueryKind::kBfs;
    want(1);
    r.vertex = parse_vertex(tok[3], line);
  } else if (q == "cc") {
    r.kind = QueryKind::kCc;
    want(1);
    r.vertex = parse_vertex(tok[3], line);
  } else {
    LGG_THROW("serve: unknown query '" + q + "': " + std::string(line));
  }
  return r;
}

}  // namespace lgg::serve
