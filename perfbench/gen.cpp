#include "gen.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <stdexcept>

#include "gen/s1_design.hpp"
#include "util/time.hpp"

namespace pb {

namespace {

// Names are built with += throughout: GCC 12 gives a false -Wrestrict on
// "literal" + std::string.
std::string stage_name(int stage) {
  std::string s = "S";
  s += std::to_string(stage);
  return s;
}

std::string ctl_name(int stage, int ctl) {
  std::string s = stage_name(stage);
  s += " CTL";
  s += std::to_string(ctl);
  s += " .S4-8.5";
  return s;
}

const tv::Primitive& driver_of(const tv::Netlist& nl, const std::string& sig) {
  tv::SignalId id = nl.find(sig);
  if (id == tv::kNoSignal || nl.signal(id).driver == tv::kNoPrim) {
    throw std::runtime_error("generator: no driven signal '" + sig + "'");
  }
  return nl.prim(nl.signal(id).driver);
}

std::string ns(tv::Time t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", tv::to_ns(t));
  return buf;
}

std::string quoted(const std::string& s) {
  std::string q = "\"";
  q += json_escape(s);
  q += '"';
  return q;
}

// Local-fanout controls (see ctl_cases).
constexpr int kLocalCtls[] = {0, 1, 8, 9, 10};

}  // namespace

S1Text make_s1(int stages, std::vector<int> violation_stages) {
  tv::gen::S1Params p;
  p.stages = stages;
  S1Text t{stages, std::move(violation_stages), tv::gen::generate_s1_shdl(p)};
  for (int s : t.violation_stages) {
    const std::string needle =
        "or [delay=1.0:3.0, width=36] (\"S" + std::to_string(s) + " ALU OUT";
    std::size_t at = t.shdl.find(needle);
    if (at == std::string::npos) {
      throw std::runtime_error("generator: cannot inject a violation into stage " +
                               std::to_string(s));
    }
    t.shdl.replace(at, std::string("or [delay=1.0:3.0").size(), "or [delay=1.0:40.0");
  }
  return t;
}

std::vector<int> pick_violation_stages(Rng& rng, int stages, double share) {
  std::vector<int> out;
  if (!rng.chance(share)) return out;
  const std::size_t n = std::min<std::size_t>(1 + rng.below(3), static_cast<std::size_t>(stages));
  while (out.size() < n) {
    int s = static_cast<int>(rng.below(static_cast<std::size_t>(stages)));
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<S1Text> cold_designs(Rng& rng, bool smallest, double violation_share) {
  // ~87 primitives per stage: 57 stages ~ 5k primitives, 1150 ~ 100k.
  const std::vector<int> classes = smallest ? std::vector<int>{2, 3, 4, 5, 6}
                                            : std::vector<int>{57, 115, 230, 460, 1150};
  std::vector<S1Text> out;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    int jitter = classes[i] / 20;  // +-5%
    int stages = classes[i] - jitter + static_cast<int>(rng.below(2 * jitter + 1));
    out.push_back(make_s1(stages, pick_violation_stages(rng, stages, violation_share)));
  }
  for (std::size_t i = out.size(); i > 1; --i) std::swap(out[i - 1], out[rng.below(i)]);
  return out;
}

std::vector<tv::CaseSpec> ctl_cases(const tv::Netlist& nl, Rng& rng, int stages) {
  // The ten control pairs are dealt out evenly over the stages, in seeded
  // order, so every seed sweeps the same mix of cones.
  std::vector<std::pair<int, int>> pairs;
  for (std::size_t a = 0; a < std::size(kLocalCtls); ++a) {
    for (std::size_t b = a + 1; b < std::size(kLocalCtls); ++b) {
      pairs.push_back({kLocalCtls[a], kLocalCtls[b]});
    }
  }
  std::vector<std::pair<int, int>> deal;
  for (int s = 0; s < stages; ++s) deal.push_back(pairs[static_cast<std::size_t>(s) % pairs.size()]);
  for (std::size_t i = deal.size(); i > 1; --i) std::swap(deal[i - 1], deal[rng.below(i)]);
  std::vector<tv::CaseSpec> cases;
  for (int s = 0; s < stages; ++s) {
    for (int ctl : {deal[static_cast<std::size_t>(s)].first, deal[static_cast<std::size_t>(s)].second}) {
      tv::SignalId id = nl.find(ctl_name(s, ctl));
      if (id == tv::kNoSignal) throw std::runtime_error("generator: no " + ctl_name(s, ctl));
      for (tv::Value v : {tv::Value::Zero, tv::Value::One}) {
        tv::CaseSpec c;
        c.name = stage_name(s);
        c.name += ".CTL";
        c.name += std::to_string(ctl);
        c.name += v == tv::Value::Zero ? "=0" : "=1";
        c.pins = {{id, v}};
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

const char* edit_family_name(EditFamily f) {
  switch (f) {
    case EditFamily::DelayTweak: return "delay_tweak";
    case EditFamily::DelayViolation: return "delay_violation";
    case EditFamily::Wire: return "wire_override";
    case EditFamily::AssertionRename: return "assertion_rename";
    case EditFamily::CaseEdit: return "case_edit";
    case EditFamily::PinRetarget: return "pin_retarget";
  }
  return "?";
}

std::vector<Edit> make_edits(const tv::Netlist& nl, const std::vector<tv::CaseSpec>& cases,
                             int stages, Rng& rng, std::size_t n) {
  std::vector<EditFamily> mix;
  for (int k = 0; k < kEditFamilies; ++k) mix.push_back(static_cast<EditFamily>(k));
  std::vector<Edit> out;
  const char* kGateOuts[] = {"A", "B", "C"};
  // An edit's cone, and so its cost, depends on where in the pipeline it
  // lands. The k-th edit of a family therefore takes its stage (and its
  // case) from the k-th of `strata` equal slices, so every seed gives each
  // family the same spread of positions; drawn freely, the positions made
  // the latency tail differ by ~15% between seeds.
  const std::size_t strata = std::max<std::size_t>(1, (n + mix.size() - 1) / mix.size());
  const auto pick = [&](std::size_t k, std::size_t size) {
    const std::size_t lo = k % strata * size / strata, hi = (k % strata + 1) * size / strata;
    return lo + rng.below(std::max<std::size_t>(hi - lo, 1));
  };
  std::size_t drawn[kEditFamilies] = {};
  while (out.size() < n) {
    const std::size_t at = out.size() % mix.size();
    if (at == 0) {
      for (std::size_t i = mix.size(); i > 1; --i) std::swap(mix[i - 1], mix[rng.below(i)]);
    }
    EditFamily f = mix[at];
    if (f == EditFamily::CaseEdit && cases.empty()) f = EditFamily::DelayTweak;
    const std::size_t k = drawn[static_cast<int>(f)]++;
    const int s = static_cast<int>(pick(k, static_cast<std::size_t>(stages)));
    const std::string st = stage_name(s);
    const int j = static_cast<int>(rng.below(11));
    std::string json;
    switch (f) {
      case EditFamily::DelayTweak: {
        std::string sig = st + " CH" + std::to_string(j) + " " + kGateOuts[rng.below(3)];
        const tv::Primitive& p = driver_of(nl, sig);
        tv::Time raise = tv::from_ns(0.1 * static_cast<double>(1 + rng.below(8)));
        json = "{\"prims\": [{\"prim\": " + quoted(p.name) + ", \"dmin\": " + ns(p.dmin) +
               ", \"dmax\": " + ns(p.dmax + raise) + "}]}";
        break;
      }
      case EditFamily::DelayViolation: {
        const tv::Primitive& p = driver_of(nl, st + " RESULT<0:35>");
        json = "{\"prims\": [{\"prim\": " + quoted(p.name) + ", \"dmin\": " + ns(p.dmin) +
               ", \"dmax\": 40.000}]}";
        break;
      }
      case EditFamily::Wire: {
        std::string sig = st + " CH" + std::to_string(j) + " A";
        driver_of(nl, sig);
        json = "{\"wires\": [{\"signal\": " + quoted(sig) + ", \"dmin\": 0.000, \"dmax\": " +
               ns(tv::from_ns(0.5 * static_cast<double>(1 + rng.below(6)))) + "}]}";
        break;
      }
      case EditFamily::AssertionRename: {
        std::string sig = ctl_name(s, j);
        if (nl.find(sig) == tv::kNoSignal) throw std::runtime_error("generator: no " + sig);
        json = "{\"assertions\": [{\"signal\": " + quoted(sig) + ", \"new\": " +
               quoted(st + " CTL" + std::to_string(j) + " .S4-8") + "}]}";
        break;
      }
      case EditFamily::CaseEdit: {
        const tv::CaseSpec& c = cases[pick(k, cases.size())];
        const auto& [sig, v] = c.pins.front();
        json = "{\"cases\": [{\"name\": " + quoted(c.name) + ", \"pins\": [[" +
               quoted(nl.signal(sig).full_name) + ", " + (v == tv::Value::Zero ? "1" : "0") +
               "]]}]}";
        break;
      }
      case EditFamily::PinRetarget: {
        // CH<j> B = or(CH<j> A, CTL<j+1>): move the control input to another
        // control of the same stage (a primary input, so no loop can form).
        const tv::Primitive& p = driver_of(nl, st + " CH" + std::to_string(j) + " B");
        int k = (j + 2 + static_cast<int>(rng.below(9))) % 11;
        json = "{\"pins\": [{\"prim\": " + quoted(p.name) + ", \"input\": 1, \"signal\": " +
               quoted(ctl_name(s, k)) + ", \"invert\": false}]}";
        break;
      }
    }
    out.push_back({f, std::move(json)});
  }
  return out;
}

}  // namespace pb
