#include "workload.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>

#include "common/string_util.h"
#include "service/canonical.h"
#include "tsl/canonical.h"
#include "tsl/parser.h"

namespace perfbench {
namespace {

using tslrw::Capability;
using tslrw::GeneratorOptions;
using tslrw::Result;
using tslrw::SourceDescription;
using tslrw::Status;
using tslrw::StrCat;
using tslrw::TslQuery;

/// SplitMix64: the whole workload is a pure function of the seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// The knobs that distinguish the workloads.
struct Params {
  size_t shapes = 0;
  /// Arm patterns, cycled through by shape index so the mix (and so the
  /// per-request cost) is the same for every seed: 'V' is an arm that binds
  /// its value to a variable, 'C' one that tests a constant.
  std::vector<std::string> patterns;
  size_t spellings = 0;
  /// Label and value alphabets shared by the data and the query arms.
  int labels = 8;
  int values = 4;
  /// Each capability view has an α-equivalent mirror, so a k-arm shape
  /// has 2^k candidate rewritings.
  bool mirrored = false;
  int roots = 0;
  int max_depth = 2;
  int max_fanout = 4;
  size_t warmup = 0;  ///< 0 = every (shape, spelling) pair once
  /// View edits toggle a view that some shapes consult; otherwise they
  /// toggle a spare view no shape consults, and every plan survives.
  bool edit_consulted_view = false;
  /// Data updates toggle between two generated databases; otherwise they
  /// republish identical data.
  bool swap_data = false;
};


constexpr size_t kSequenceLength = 1 << 14;

/// One star arm `<P rec {<X l<label> value>}>@db`; value < 0 is a value
/// variable, otherwise the constant `v<value>`.
struct Arm {
  int label = 0;
  int value = 0;
};

/// Per-arm capability view over label \p label with variables \p p, \p x
/// and \p u; \p head_label differs only in the edited version.
TslQuery ArmView(int label, const std::string& name, const std::string& p,
                 const std::string& x, const std::string& u,
                 const std::string& head_label) {
  auto parsed = tslrw::ParseTslQuery(
      StrCat("<v", label, "(", p, ") ", head_label, label, " {<w", label,
             "(", x, ") m ", u, ">}> :- <", p, " rec {<", x, " l", label,
             " ", u, ">}>@db"),
      name);
  return std::move(parsed).ValueOrDie();
}

/// One view per data label (plus its mirror when mirrored), and a spare
/// view over label `params.labels`, which the data never uses.
std::vector<SourceDescription> MakeViews(const Params& params,
                                         int edited_label) {
  std::vector<Capability> caps;
  for (int i = 0; i <= params.labels; ++i) {
    Capability primary;
    primary.view = ArmView(i, StrCat("V", i), "P'", "X'", "U'",
                           i == edited_label ? "e" : "o");
    caps.push_back(std::move(primary));
    if (params.mirrored && i < params.labels) {
      Capability mirror;
      mirror.view = ArmView(i, StrCat("M", i), "Q'", "Y'", "Z'", "o");
      caps.push_back(std::move(mirror));
    }
  }
  return {SourceDescription{"db", std::move(caps)}};
}

GeneratorOptions MakeData(const Params& params, uint64_t seed) {
  GeneratorOptions options;
  options.seed = seed;
  options.num_roots = params.roots;
  options.max_depth = params.max_depth;
  options.max_fanout = params.max_fanout;
  options.num_labels = params.labels;
  options.num_values = params.values;
  options.root_label = "rec";
  return options;
}

/// Spelling 0 names variables P, X<i>, U<i> and keeps arm order; spelling
/// s > 0 renames every variable and permutes the conjuncts.
std::string Spell(const std::vector<Arm>& arms, size_t spelling, Rng& rng) {
  std::vector<size_t> order(arms.size());
  std::iota(order.begin(), order.end(), 0);
  std::string root = "P";
  std::string object = "X";
  std::string value = "U";
  if (spelling > 0) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Below(i)]);
    }
    root = StrCat("R", spelling);
    object = StrCat("O", spelling, "_");
    value = StrCat("W", spelling, "_");
  }
  std::vector<std::string> body;
  for (size_t i : order) {
    const Arm& arm = arms[i];
    const std::string datum =
        arm.value < 0 ? StrCat(value, i) : StrCat("v", arm.value);
    body.push_back(StrCat("<", root, " rec {<", object, i, " l", arm.label,
                          " ", datum, ">}>@db"));
  }
  return StrCat("<f(", root, ") out yes> :- ", tslrw::Join(body, " AND "));
}

Result<Workload> Build(const std::string& name, uint64_t seed,
                       const Params& params) {
  Workload w;
  w.name = name;
  w.seed = seed;
  // The source databases are fixed, so the seed varies the traffic and
  // never the data volume a request touches.
  w.data[0] = MakeData(params, 1);
  w.data[1] = MakeData(params, params.swap_data ? 2 : 1);
  Rng rng(seed);

  // Distinct shapes: distinct labels per shape, each arm binding or
  // testing its value as the shape's pattern says.
  std::set<std::vector<std::pair<int, int>>> drawn;
  std::set<std::string> keys;
  std::vector<std::vector<Arm>> shapes;
  while (shapes.size() < params.shapes) {
    const std::string& pattern =
        params.patterns[shapes.size() % params.patterns.size()];
    std::vector<int> labels(static_cast<size_t>(params.labels));
    std::iota(labels.begin(), labels.end(), 0);
    std::vector<Arm> shape;
    std::vector<std::pair<int, int>> structure;
    for (size_t i = 0; i < pattern.size(); ++i) {
      std::swap(labels[i], labels[i + rng.Below(labels.size() - i)]);
      Arm arm;
      arm.label = labels[i];
      arm.value = pattern[i] == 'V'
                      ? -1
                      : static_cast<int>(rng.Below(
                            static_cast<size_t>(params.values)));
      shape.push_back(arm);
      structure.emplace_back(arm.label, arm.value);
    }
    std::sort(structure.begin(), structure.end());
    if (!drawn.insert(structure).second) continue;
    std::vector<std::string> texts;
    std::vector<TslQuery> queries;
    for (size_t s = 0; s < params.spellings; ++s) {
      texts.push_back(Spell(shape, s, rng));
      auto parsed = tslrw::ParseTslQuery(texts.back(), "Q");
      if (!parsed.ok()) return parsed.status();
      queries.push_back(std::move(parsed).ValueOrDie());
    }
    const std::string key = tslrw::MakePlanCacheKey(queries[0]).key;
    if (!keys.insert(key).second) {
      return Status::Internal(
          StrCat("distinct shapes canonicalize together: ", texts[0]));
    }
    for (const TslQuery& q : queries) {
      if (tslrw::MakePlanCacheKey(q).key != key) {
        return Status::Internal(
            StrCat("spellings of one shape canonicalize apart: ", texts[0]));
      }
    }
    shapes.push_back(std::move(shape));
    w.texts.push_back(std::move(texts));
    w.spellings.push_back(std::move(queries));
  }

  // A consulted edited view is one arm label of shape 0, so an edit
  // invalidates some cached plans and (with more than one label in use)
  // retains others.
  const int edited_label =
      params.edit_consulted_view ? shapes[0][0].label : params.labels;
  w.edited_view = StrCat("V", edited_label);
  w.views[0] = MakeViews(params, -1);
  w.views[1] = MakeViews(params, edited_label);
  size_t consulting = 0;
  for (const std::vector<Arm>& shape : shapes) {
    consulting += std::any_of(shape.begin(), shape.end(), [&](const Arm& a) {
      return a.label == edited_label;
    });
  }
  if (consulting == shapes.size()) {
    return Status::Internal("every shape consults the edited view");
  }
  w.edited_view_share =
      static_cast<double>(consulting) / static_cast<double>(shapes.size());

  auto draw = [&] {
    Request r;
    r.shape = static_cast<uint32_t>(rng.Below(shapes.size()));
    r.spelling = static_cast<uint32_t>(rng.Below(params.spellings));
    return r;
  };
  if (params.warmup == 0) {
    for (uint32_t shape = 0; shape < shapes.size(); ++shape) {
      for (uint32_t s = 0; s < params.spellings; ++s) {
        w.warmup.push_back(Request{shape, s});
      }
    }
  } else {
    for (size_t i = 0; i < params.warmup; ++i) w.warmup.push_back(draw());
  }
  for (size_t i = 0; i < kSequenceLength; ++i) w.sequence.push_back(draw());
  return w;
}

}  // namespace

Publish Workload::PublishBefore(size_t index) const {
  if (index == 0 || index % kPublishEvery != 0) return Publish::kNone;
  return (index / kPublishEvery) % 2 == 1 ? Publish::kViewEdit
                                          : Publish::kDataUpdate;
}

double Workload::AlphaRenamedShare() const {
  size_t renamed = 0;
  for (const Request& r : sequence) renamed += r.spelling != 0;
  return static_cast<double>(renamed) / static_cast<double>(sequence.size());
}

uint64_t Workload::Digest() const {
  std::string all = StrCat(name, "|", kPublishEvery, "|", data[0].seed, "|",
                           data[1].seed, "|", data[0].num_roots, "|");
  for (const std::vector<SourceDescription>& version : views) {
    for (const SourceDescription& source : version) {
      for (const Capability& cap : source.capabilities) {
        all += cap.view.ToString();
        all += '\n';
      }
    }
  }
  for (const Request& r : sequence) {
    all += texts[r.shape][r.spelling];
    all += '\n';
  }
  return tslrw::StableFingerprint(all);
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Params params;
  if (name == "warm_head") {
    // A few dozen 2- and 3-arm shapes over a large source: every request
    // hits the plan cache and the work is fetch + execution. Every arm
    // binds its value, so no join order is cheaper than another. Data
    // updates switch between two databases of the same size, so answers
    // change under the cached plans.
    params.shapes = 48;
    params.patterns = {"VV", "VVV"};
    params.spellings = 4;
    params.roots = 256;
    params.swap_data = true;
  } else if (name == "cold_tail") {
    // 8x the default plan-cache capacity of 5-arm shapes over mirrored
    // views and a small flat source: most requests pay a plan search over
    // 2^5 candidates. View edits touch a label half the shapes use, so
    // selective maintenance drops some cached plans and keeps others.
    params.shapes = 2048;
    params.patterns = {"VVVCC"};
    params.spellings = 2;
    params.labels = 10;
    params.values = 2;
    params.mirrored = true;
    params.roots = 8;
    params.max_depth = 1;
    params.max_fanout = 24;
    params.warmup = 256;
    params.edit_consulted_view = true;
  } else {
    return Status::InvalidArgument(StrCat("unknown workload '", name, "'"));
  }
  return Build(name, seed, params);
}

}  // namespace perfbench
