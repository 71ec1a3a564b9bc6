#include "game/io.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace cid {

namespace {

/// Emits one latency function as a single line body (without the leading
/// "latency " keyword). Scaled functions recurse once.
void emit_latency(std::ostringstream& os, const LatencyFunction& fn) {
  if (const auto* c = dynamic_cast<const ConstantLatency*>(&fn)) {
    os << "constant " << c->constant();
    return;
  }
  if (const auto* m = dynamic_cast<const MonomialLatency*>(&fn)) {
    os << "monomial " << m->coefficient() << ' ' << m->degree();
    return;
  }
  if (const auto* p = dynamic_cast<const PolynomialLatency*>(&fn)) {
    os << "polynomial " << p->coefficients().size();
    for (double a : p->coefficients()) os << ' ' << a;
    return;
  }
  if (const auto* e = dynamic_cast<const ExponentialLatency*>(&fn)) {
    // Reconstruct a and b from values: a = ℓ(0), b = ℓ'(0)/ℓ(0).
    const double a = e->value(0.0);
    const double b = e->derivative(0.0) / a;
    os << "exponential " << a << ' ' << b;
    return;
  }
  if (const auto* s = dynamic_cast<const ScaledLatency*>(&fn)) {
    os << "scaled " << s->divisor() << ' ';
    emit_latency(os, s->base());
    return;
  }
  CID_ENSURE(false,
             "unsupported latency class for serialization: " + fn.describe());
}

class LineParser {
 public:
  explicit LineParser(const std::string& text) : in_(text) {}

  /// Next non-empty line as a token stream; false at end of input.
  bool next(std::istringstream& line) {
    std::string raw;
    while (std::getline(in_, raw)) {
      ++line_number_;
      if (raw.empty()) continue;
      line.clear();
      line.str(raw);
      return true;
    }
    return false;
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw invariant_violation("parse error at line " +
                              std::to_string(line_number_) + ": " + message);
  }

  template <typename T>
  T read(std::istringstream& line, const char* what) {
    T value;
    if (!(line >> value)) fail(std::string("expected ") + what);
    return value;
  }

 private:
  std::istringstream in_;
  int line_number_ = 0;
};

LatencyPtr parse_latency_body(LineParser& p, std::istringstream& line) {
  std::string kind;
  if (!(line >> kind)) p.fail("expected latency kind");
  if (kind == "constant") {
    return make_constant(p.read<double>(line, "constant value"));
  }
  if (kind == "monomial") {
    const double a = p.read<double>(line, "coefficient");
    const double d = p.read<double>(line, "degree");
    return make_monomial(a, d);
  }
  if (kind == "polynomial") {
    const auto k = p.read<std::size_t>(line, "coefficient count");
    if (k > 64) p.fail("polynomial degree too large");
    std::vector<double> coef(k);
    for (auto& c : coef) c = p.read<double>(line, "coefficient");
    return make_polynomial(std::move(coef));
  }
  if (kind == "exponential") {
    const double a = p.read<double>(line, "scale");
    const double b = p.read<double>(line, "rate");
    return make_exponential(a, b);
  }
  if (kind == "scaled") {
    const auto n = p.read<std::int64_t>(line, "scale divisor");
    LatencyPtr base = parse_latency_body(p, line);
    return make_scaled(std::move(base), n);
  }
  p.fail("unknown latency kind '" + kind + "'");
}

}  // namespace

std::string serialize_game(const CongestionGame& game) {
  std::ostringstream os;
  os.precision(17);
  os << "cid-game v1\n";
  os << "players " << game.num_players() << '\n';
  os << "resources " << game.num_resources() << '\n';
  for (Resource e = 0; e < game.num_resources(); ++e) {
    os << "latency ";
    std::ostringstream body;
    body.precision(17);
    emit_latency(body, game.latency(e));
    os << body.str() << '\n';
  }
  os << "strategies " << game.num_strategies() << '\n';
  for (StrategyId s = 0; s < game.num_strategies(); ++s) {
    const Strategy& st = game.strategy(s);
    os << "strategy " << st.size();
    for (Resource e : st) os << ' ' << e;
    os << '\n';
  }
  os << "end\n";
  return os.str();
}

CongestionGame parse_game(const std::string& text) {
  LineParser p(text);
  std::istringstream line;

  CID_ENSURE(p.next(line), "empty input");
  std::string magic, version;
  line >> magic >> version;
  if (magic != "cid-game" || version != "v1") p.fail("bad header");

  CID_ENSURE(p.next(line), "truncated input");
  std::string key;
  line >> key;
  if (key != "players") p.fail("expected 'players'");
  const auto players = p.read<std::int64_t>(line, "player count");

  CID_ENSURE(p.next(line), "truncated input");
  line >> key;
  if (key != "resources") p.fail("expected 'resources'");
  const auto resources = p.read<std::int32_t>(line, "resource count");
  if (resources < 1 || resources > 1 << 20) p.fail("bad resource count");

  std::vector<LatencyPtr> latencies;
  latencies.reserve(static_cast<std::size_t>(resources));
  for (std::int32_t e = 0; e < resources; ++e) {
    CID_ENSURE(p.next(line), "truncated input");
    line >> key;
    if (key != "latency") p.fail("expected 'latency'");
    latencies.push_back(parse_latency_body(p, line));
  }

  CID_ENSURE(p.next(line), "truncated input");
  line >> key;
  if (key != "strategies") p.fail("expected 'strategies'");
  const auto num_strategies = p.read<std::int32_t>(line, "strategy count");
  if (num_strategies < 1 || num_strategies > 1 << 22) {
    p.fail("bad strategy count");
  }
  std::vector<Strategy> strategies;
  strategies.reserve(static_cast<std::size_t>(num_strategies));
  for (std::int32_t s = 0; s < num_strategies; ++s) {
    CID_ENSURE(p.next(line), "truncated input");
    line >> key;
    if (key != "strategy") p.fail("expected 'strategy'");
    const auto len = p.read<std::size_t>(line, "strategy length");
    Strategy st(len);
    for (auto& e : st) e = p.read<Resource>(line, "resource id");
    strategies.push_back(std::move(st));
  }

  CID_ENSURE(p.next(line), "truncated input");
  line >> key;
  if (key != "end") p.fail("expected 'end'");

  return CongestionGame(std::move(latencies), std::move(strategies),
                        players);
}

std::string serialize_state(const State& x) {
  std::ostringstream os;
  os << "cid-state v1\ncounts " << x.counts().size();
  for (std::int64_t c : x.counts()) os << ' ' << c;
  os << '\n';
  return os.str();
}

State parse_state(const CongestionGame& game, const std::string& text) {
  LineParser p(text);
  std::istringstream line;
  CID_ENSURE(p.next(line), "empty input");
  std::string magic, version;
  line >> magic >> version;
  if (magic != "cid-state" || version != "v1") p.fail("bad header");
  CID_ENSURE(p.next(line), "truncated input");
  std::string key;
  line >> key;
  if (key != "counts") p.fail("expected 'counts'");
  const auto k = p.read<std::size_t>(line, "count of counts");
  if (k != static_cast<std::size_t>(game.num_strategies())) {
    p.fail("state dimension does not match game");
  }
  std::vector<std::int64_t> counts(k);
  for (auto& c : counts) c = p.read<std::int64_t>(line, "count");
  return State(game, std::move(counts));
}

namespace {

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out.good()) {
    throw input_error("cannot open '" + path +
                      "' for writing: " + std::strerror(errno));
  }
  out << text;
  out.flush();
  CID_ENSURE(out.good(), "write failed (disk full?) for: " + path);
  obs::record_persist_write(text.size(), /*fsyncs=*/0);
  obs::record_persist_flush();
}

std::string read_text_file(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "r");
  if (in == nullptr) {
    throw input_error("cannot open '" + path +
                      "' for reading: " + std::strerror(errno));
  }
  std::string text;
  char chunk[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof chunk, in)) > 0) {
    text.append(chunk, got);
  }
  const int error = std::ferror(in) != 0 ? errno : 0;
  std::fclose(in);
  if (error != 0) {
    throw input_error("cannot read '" + path + "': " + std::strerror(error));
  }
  return text;
}

}  // namespace

void save_game(const CongestionGame& game, const std::string& path) {
  write_text_file(path, serialize_game(game));
}

/// Malformed text in a user-named file is bad input too: the loaders
/// rethrow any parse or validation failure as input_error naming the path.
CongestionGame load_game(const std::string& path) {
  const std::string text = read_text_file(path);
  try {
    return parse_game(text);
  } catch (const invariant_violation& e) {
    throw input_error(path + ": " + e.what());
  }
}

void save_state(const State& x, const std::string& path) {
  write_text_file(path, serialize_state(x));
}

State load_state(const CongestionGame& game, const std::string& path) {
  const std::string text = read_text_file(path);
  try {
    return parse_state(game, text);
  } catch (const invariant_violation& e) {
    throw input_error(path + ": " + e.what());
  }
}

}  // namespace cid
