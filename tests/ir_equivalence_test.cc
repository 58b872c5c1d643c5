// Byte-identity of compiled plan execution: for every rule set and every
// optimization-pass configuration, ExecuteIr must return exactly the answer
// of the tree walker — same graph, same roots, same database name, and the
// same error (code and message) on the same input. docs/IR.md states the
// argument; this suite pins it across the paper fixtures, DTD-shaped data,
// and seeded-random rules, then checks the serving stack (which executes
// only on the IR) against the tree-walking oracle: degraded answers under
// injected faults, a chaos drill, and a parallel server.

#include <algorithm>
#include <future>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/dtd.h"
#include "eval/evaluator.h"
#include "fixtures.h"
#include "ir/compiler.h"
#include "ir/interp.h"
#include "mediator/fault.h"
#include "mediator/mediator.h"
#include "oem/generator.h"
#include "obs/metrics.h"
#include "service/server.h"
#include "testing/chaos.h"
#include "testing/random_rules.h"
#include "tsl/parser.h"

namespace tslrw {
namespace {

using testing::MustParse;
using testing::MustParseDb;

/// The four pass configurations the suite sweeps: every one must be
/// byte-identical; only the work done may differ.
std::vector<std::pair<std::string, IrPassOptions>> PassConfigs() {
  IrPassOptions none;
  none.hoist_invariant_submatches = false;
  none.common_subplan_elimination = false;
  none.copy_elision = false;
  IrPassOptions hoist = none;
  hoist.hoist_invariant_submatches = true;
  IrPassOptions cse = hoist;
  cse.common_subplan_elimination = true;
  IrPassOptions all;  // defaults: everything on
  return {{"none", none}, {"hoist", hoist}, {"hoist+cse", cse}, {"all", all}};
}

/// Renders an evaluation outcome so that equal strings mean byte-identical
/// observables: status on error, else database name + canonical text.
std::string RenderOutcome(Result<OemDatabase> result) {
  if (!result.ok()) return "error: " + result.status().ToString();
  const OemDatabase& db = *result;
  return db.name() + "\n" + db.ToString();
}

/// Tree-vs-IR identity for one rule under every pass configuration.
void ExpectQueryIdentity(const TslQuery& query, const SourceCatalog& catalog,
                         const std::string& default_source = "db") {
  EvalOptions eval_opts;
  eval_opts.default_source = default_source;
  std::string tree = RenderOutcome(Evaluate(query, catalog, eval_opts));
  for (const auto& [label, passes] : PassConfigs()) {
    PlanCompiler compiler(passes);
    auto program = compiler.Compile(query);
    ASSERT_TRUE(program.ok()) << program.status();
    IrExecOptions exec;
    exec.default_source = default_source;
    std::string ir = RenderOutcome(ExecuteIr(**program, catalog, exec));
    EXPECT_EQ(tree, ir) << "passes=" << label << "\n" << query.ToString();
  }
}

/// Tree-vs-IR identity for a rule set sharing one answer database.
void ExpectRuleSetIdentity(const TslRuleSet& rules,
                           const SourceCatalog& catalog) {
  std::string tree = RenderOutcome(EvaluateRuleSet(rules, catalog));
  for (const auto& [label, passes] : PassConfigs()) {
    PlanCompiler compiler(passes);
    auto program = compiler.Compile(rules);
    ASSERT_TRUE(program.ok()) << program.status();
    std::string ir = RenderOutcome(ExecuteIr(**program, catalog));
    EXPECT_EQ(tree, ir) << "passes=" << label;
  }
}

/// Tree-vs-IR identity for a plan set executed plan-by-plan: one answer per
/// plan (how the mediator runs rewritten plan sets), with hoisted units
/// shared across all plans on the IR side.
void ExpectPlanSetIdentity(const std::vector<TslQuery>& plans,
                           const SourceCatalog& catalog) {
  std::vector<std::string> tree;
  tree.reserve(plans.size());
  for (const TslQuery& plan : plans) {
    tree.push_back(RenderOutcome(Evaluate(plan, catalog)));
  }
  for (const auto& [label, passes] : PassConfigs()) {
    PlanCompiler compiler(passes);
    auto program = compiler.CompilePlans(plans);
    ASSERT_TRUE(program.ok()) << program.status();
    auto answers = ExecuteIrPerSegment(**program, catalog);
    ASSERT_TRUE(answers.ok()) << answers.status();
    ASSERT_EQ(answers->size(), plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
      EXPECT_EQ(tree[i],
                (*answers)[i].name() + "\n" + (*answers)[i].ToString())
          << "passes=" << label << " plan " << i << "\n"
          << plans[i].ToString();
    }
  }
}

SourceCatalog PeopleCatalog() {
  SourceCatalog catalog;
  catalog.Put(MustParseDb(R"(
    database db {
      <p1 person {
        <g1 gender female>
        <n1 name {<l1 last smith> <f1 first ann>}>
        <u1 university stanford>
      }>
      <p2 person {
        <g2 gender male>
        <n2 name {<l2 last jones> <f2 first bo>}>
      }>
      <p3 p {
        <x1 name {<z1 last stanford>}>
        <y1 office leland>
      }>
      <p4 p {
        <x2 phone leland>
        <u2 university stanford>
      }>
    })"));
  return catalog;
}

TEST(IrEquivalenceTest, PaperFixtureSuite) {
  SourceCatalog catalog = PeopleCatalog();
  for (std::string_view text :
       {testing::kQ1, testing::kQ2, testing::kQ3, testing::kQ5, testing::kQ7,
        testing::kQ9, testing::kQ10, testing::kQ11, testing::kQ12,
        testing::kQ13, testing::kQ14}) {
    ExpectQueryIdentity(MustParse(text, "Q"), catalog);
  }
}

TEST(IrEquivalenceTest, SetValueCopyAndFusion) {
  SourceCatalog catalog = PeopleCatalog();
  // Whole-subgraph copies (value variables over set objects) exercise the
  // CopySubgraph path and, with passes on, the copy memo.
  ExpectQueryIdentity(
      MustParse("<c(P) copy V> :- <P person V>@db", "Copy"), catalog);
  ExpectQueryIdentity(
      MustParse("<c(P) copy {<f(X) m V>}> :- <P person {<X name V>}>@db",
                "DeepCopy"),
      catalog);
  // Two rules fusing into the same answer objects.
  TslRuleSet fused;
  fused.rules = {
      MustParse("<f(P) person {<g(G) has Z>}> :- "
                "<P person {<G gender Z>}>@db",
                "R1"),
      MustParse("<f(P) person {<h(X) copy V>}> :- "
                "<P person {<X name V>}>@db",
                "R2"),
  };
  ExpectRuleSetIdentity(fused, catalog);
}

TEST(IrEquivalenceTest, ErrorsAreIdentical) {
  SourceCatalog catalog = PeopleCatalog();
  // Unsafe head variable (never bound by the body).
  ExpectQueryIdentity(
      MustParse("<f(P) out W0> :- <P person {}>@db", "Unsafe"), catalog);
  // Subgraph binding used where an atomic term is required (oid position).
  ExpectQueryIdentity(
      MustParse("<f(V) out yes> :- <P person V>@db", "SubgraphOid"),
      catalog);
  // Head value instantiates to a function term.
  ExpectQueryIdentity(
      MustParse("<f(P) out g(P)> :- <P person {}>@db", "FuncValue"),
      catalog);
  // Missing source: an error only when evaluation actually reaches the
  // condition — after an empty frontier the tree walker stops resolving,
  // and lazy IR source resolution must stop at the same point.
  ExpectQueryIdentity(
      MustParse("<f(P) out yes> :- <P person {}>@nosuch", "MissingSource"),
      catalog);
  ExpectQueryIdentity(
      MustParse("<f(P) out yes> :- "
                "<P nolabel {}>@db AND <P person {}>@nosuch",
                "UnreachedSource"),
      catalog);
}

TEST(IrEquivalenceTest, DtdShapedSuite) {
  auto dtd = Dtd::Parse(testing::kPersonDtd);
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  SourceCatalog catalog;
  catalog.Put(MustParseDb(R"(
    database db {
      <p1 p {
        <n1 name {<l1 last smith> <f1 first ann>
                  <a1 alias {<l2 last stanford> <f2 first annie>}>}>
        <ph1 phone "555">
        <ad1 address "main st">
      }>
      <p2 p {
        <n2 name {<l3 last stanford> <f3 first bo>}>
        <ph2 phone "556">
      }>
    })"));
  ExpectQueryIdentity(MustParse(testing::kQ7, "Q7"), catalog);
  ExpectQueryIdentity(MustParse(testing::kQ12, "Q12"), catalog);
  ExpectQueryIdentity(MustParse(testing::kQ13, "Q13"), catalog);
  ExpectQueryIdentity(
      MustParse("<f(P) names {<X Y Z>}> :- <P p {<N name {<X Y Z>}>}>@db",
                "AllNames"),
      catalog);
}

TEST(IrEquivalenceTest, RegexStepSuite) {
  SourceCatalog catalog;
  catalog.Put(MustParseDb(R"(
    database db {
      <r1 part {
        <s1 part {<s2 part {<l1 leaf v0>}> <l2 leaf v1>}>
        <o1 other {<l3 leaf v2>}>
      }>
    })"));
  // Label-closure chains and descendant steps drive StepCandidates' BFS,
  // shared verbatim between the walker and the interpreter.
  ExpectQueryIdentity(
      MustParse("<f(X) out Z> :- <R part {<X part+ {<L leaf Z>}>}>@db",
                "Chain"),
      catalog);
  ExpectQueryIdentity(
      MustParse("<f(X) out Z> :- <R part {<X ** Z>}>@db", "Desc"), catalog);
}

TEST(IrEquivalenceTest, SeededRandomSuite) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    GeneratorOptions gen;
    gen.seed = seed;
    gen.num_roots = 6;
    gen.max_depth = 3;
    gen.num_labels = 3;
    gen.num_values = 3;
    gen.root_label = "root";
    gen.share_probability = 0.2;
    SourceCatalog catalog;
    OemDatabase db = GenerateOemDatabase("db", gen);
    catalog.Put(db);

    testing::RandomRules rules(seed, /*num_labels=*/3, /*num_values=*/3,
                               "root");
    std::vector<TslQuery> plans = {
        rules.Query("Q0", "db"), rules.View("V0", "db"),
        rules.CopyView("V1", "db"), rules.DeepView("V2", "db"),
        rules.Query("Q1", "db"),
    };
    for (const TslQuery& plan : plans) {
      ExpectQueryIdentity(plan, catalog);
    }
    ExpectPlanSetIdentity(plans, catalog);
    TslRuleSet set;
    set.rules = {plans[0], plans[4]};
    ExpectRuleSetIdentity(set, catalog);
  }
}

TEST(IrEquivalenceTest, CseSharesAlphaEquivalentConditions) {
  SourceCatalog catalog = PeopleCatalog();
  // Two plans whose conditions differ only by variable naming: the CSE
  // pass must merge their units, and answers must not change.
  std::vector<TslQuery> plans = {
      MustParse("<f(P) out Z> :- <P person {<X name Z>}>@db", "A"),
      MustParse("<f(Q) out W> :- <Q person {<Y name W>}>@db", "B"),
  };
  ExpectPlanSetIdentity(plans, catalog);

  MetricRegistry metrics;
  PlanCompiler compiler(IrPassOptions{}, &metrics);
  auto program = compiler.CompilePlans(plans);
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(metrics.GetCounter("ir.units_shared")->value(), 1u);
  bool found = false;
  for (const IrPassStat& stat : (*program)->pass_stats) {
    if (stat.pass == "common-subplan-elim") {
      found = true;
      EXPECT_EQ(stat.units_before, 2u);
      EXPECT_EQ(stat.units_after, 1u);
    }
  }
  EXPECT_TRUE(found);

  // A shared unit is materialized exactly once per execution.
  MetricRegistry exec_metrics;
  IrExecOptions exec;
  exec.metrics = &exec_metrics;
  auto answers = ExecuteIrPerSegment(**program, catalog, exec);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(exec_metrics.GetCounter("ir.units_materialized")->value(), 1u);
}

TEST(IrEquivalenceTest, ConditionFingerprintIsAlphaInvariant) {
  auto cond = [](std::string_view text) {
    return MustParse(text, "Q").body.front();
  };
  EXPECT_EQ(
      ConditionFingerprint(cond("<f(P) o y> :- <P p {<X name Z>}>@db")),
      ConditionFingerprint(cond("<f(Q) o y> :- <Q p {<Y name W>}>@db")));
  // Different source, same pattern: distinct.
  EXPECT_NE(
      ConditionFingerprint(cond("<f(P) o y> :- <P p {<X name Z>}>@db")),
      ConditionFingerprint(cond("<f(P) o y> :- <P p {<X name Z>}>@other")));
  // Repeated variables must not collide with distinct ones.
  EXPECT_NE(
      ConditionFingerprint(cond("<f(P) o y> :- <P p {<X Y Y>}>@db")),
      ConditionFingerprint(cond("<f(P) o y> :- <P p {<X Y Z>}>@db")));
}

TEST(IrEquivalenceTest, DisassemblyListsOpsAndPassStats) {
  PlanCompiler compiler;
  auto program =
      compiler.Compile(MustParse(testing::kQ1, "Q1"));
  ASSERT_TRUE(program.ok()) << program.status();
  std::string text = Disassemble(**program);
  for (const char* needle :
       {"iter_roots", "match_oid", "join_unit", "emit_row", "emit_head",
        "fuse_root"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle << "\n" << text;
  }
  std::string stats = PassStatsTable(**program);
  EXPECT_NE(stats.find("hoist-invariant-submatches"), std::string::npos);
  EXPECT_NE(stats.find("common-subplan-elim"), std::string::npos);
  EXPECT_NE(stats.find("copy-elision"), std::string::npos);
  // Dumps are deterministic.
  EXPECT_EQ(text, Disassemble(**program));
}

// --- serving: fault-tolerant answers vs the tree-walking oracle -------------

SourceCatalog BiblioCatalog() {
  SourceCatalog catalog;
  catalog.Put(MustParseDb(R"(
    database s1 {
      <a1 publication {
        <t1 title "Views"> <v1 venue "SIGMOD"> <y1 year "1997">
      }>
      <a2 publication {
        <t2 title "Constraints"> <v2 venue "VLDB"> <y2 year "1997">
      }>
    })"));
  catalog.Put(MustParseDb(R"(
    database s2 {
      <b1 publication {
        <u1 title "Wrappers"> <w1 venue "SIGMOD"> <x1 year "1997">
      }>
    })"));
  return catalog;
}

/// s1 exposes a 1997 filter; s2 is replicated behind two α-equivalent dump
/// mirrors so the chaos drill's flap phase has somewhere to fail over.
std::vector<SourceDescription> BiblioSources() {
  Capability y97;
  y97.view = MustParse(
      "<y97(P') pub {<X' Y' Z'>}> :- "
      "<P' publication {<U' year \"1997\">}>@s1 AND "
      "<P' publication {<X' Y' Z'>}>@s1",
      "Y97");
  Capability dump_a;
  dump_a.view = MustParse(
      "<da(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@s2",
      "DumpA");
  Capability dump_b;
  dump_b.view = MustParse(
      "<db(P') pub {<X' Y' Z'>}> :- <P' publication {<X' Y' Z'>}>@s2",
      "DumpB");
  return {SourceDescription{"s1", {y97}}, SourceDescription{"s2", {dump_a}},
          SourceDescription{"s2", {dump_b}}};
}

TslQuery Year97Query() {
  return MustParse(
      "<f(P) out yes> :- <P publication {<U year \"1997\">}>@s1", "Q97");
}

TslQuery SigmodDumpQuery() {
  return MustParse(
      "<g(P) sigmod yes> :- <P publication {<V venue \"SIGMOD\">}>@s2",
      "Sigmod");
}

/// Full observable surface of a fault-tolerant answer: the consolidated
/// database, the completeness verdict, the dead-source list, and the whole
/// execution report (attempt-by-attempt, on virtual time).
std::string RenderAnswer(const DegradedAnswer& answer) {
  std::string out = answer.result.ToString();
  out += "completeness=";
  out += CompletenessToString(answer.completeness);
  for (const std::string& s : answer.unreachable_sources) {
    out += " unreachable:" + s;
  }
  out += "\n";
  out += answer.report.ToString();
  return out;
}

/// The set of root oids of \p db, rendered.
std::set<std::string> RootKeys(const OemDatabase& db) {
  std::set<std::string> keys;
  for (const Oid& root : db.roots()) keys.insert(root.ToString());
  return keys;
}

TEST(IrEquivalenceTest, DegradedAnswersMatchTheOracle) {
  // The served engine against the tree walker over the base data: a
  // complete answer is byte-identical to Evaluate, a degraded one is sound
  // (its roots are the oracle's), and a fixed seed replays the whole
  // report.
  auto mediator = Mediator::Make(BiblioSources(), nullptr);
  ASSERT_TRUE(mediator.ok()) << mediator.status();
  SourceCatalog catalog = BiblioCatalog();
  struct Scenario {
    const char* name;
    const char* dead;  // source whose wrapper never answers; null = healthy
  };
  const Scenario scenarios[] = {
      {"healthy", nullptr}, {"s1 dead", "s1"}, {"s2 dead", "s2"}};
  for (const TslQuery& query : {Year97Query(), SigmodDumpQuery()}) {
    auto oracle = Evaluate(query, catalog);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    for (const Scenario& scenario : scenarios) {
      for (uint64_t seed = 0; seed < 8; ++seed) {
        auto run = [&]() -> Result<DegradedAnswer> {
          CatalogWrapper base;
          VirtualClock clock;
          FaultInjector injector(&base, seed, &clock);
          if (scenario.dead != nullptr) {
            FaultSchedule dead;
            dead.steady_state = Fault::Unavailable();
            injector.SetSchedule(scenario.dead, dead);
          }
          ExecutionPolicy policy;
          policy.wrapper = &injector;
          policy.clock = &clock;
          policy.seed = seed;
          policy.retry.max_attempts = 2;
          policy.retry.initial_backoff_ticks = 1;
          return mediator->Answer(query, catalog, policy);
        };
        auto answer = run();
        ASSERT_TRUE(answer.ok()) << scenario.name << ": " << answer.status();
        auto replay = run();
        ASSERT_TRUE(replay.ok()) << replay.status();
        EXPECT_EQ(RenderAnswer(*answer), RenderAnswer(*replay))
            << scenario.name << " seed " << seed;
        const std::string rendered = RenderAnswer(*answer);
        if (answer->complete()) {
          EXPECT_EQ(answer->result.name(), oracle->name());
          EXPECT_EQ(answer->result.ToString(), oracle->ToString())
              << scenario.name << " seed " << seed;
        } else {
          const std::set<std::string> roots = RootKeys(answer->result);
          const std::set<std::string> expected = RootKeys(*oracle);
          EXPECT_TRUE(std::includes(expected.begin(), expected.end(),
                                    roots.begin(), roots.end()))
              << scenario.name << " seed " << seed << "\n" << rendered;
        }
        // When the query's own source is the dead one, the degraded path
        // must actually have been exercised, not silently stayed complete.
        const bool touches_dead =
            scenario.dead != nullptr &&
            ((query.name == "Q97" && std::string(scenario.dead) == "s1") ||
             (query.name == "Sigmod" && std::string(scenario.dead) == "s2"));
        if (touches_dead) {
          EXPECT_NE(rendered.find(std::string("unreachable:") + scenario.dead),
                    std::string::npos)
              << scenario.name << "\n" << rendered;
        }
      }
    }
  }
}

TEST(IrEquivalenceTest, ChaosDrillSoundAndRecoveredOnIrBackend) {
  auto sources = BiblioSources();
  SourceCatalog catalog = BiblioCatalog();
  std::vector<TslQuery> queries = {Year97Query(), SigmodDumpQuery()};
  ChaosOptions options;
  options.seed = 7;
  options.requests_per_phase = 4;
  auto script = StandardChaosScript(sources, options);
  auto drill = RunChaosDrill(sources, catalog, queries, script, options);
  ASSERT_TRUE(drill.ok()) << drill.status();
  EXPECT_TRUE(drill->sound);
  EXPECT_TRUE(drill->recovered);
  for (const std::string& violation : drill->violations) {
    ADD_FAILURE() << "violation: " << violation;
  }
}

TEST(IrEquivalenceTest, ParallelServerAnswersMatchTheOracle) {
  // A concurrent request mix against a server at parallelism 8 (the TSan
  // CI job runs this binary): every answer must be complete and byte for
  // byte the tree walker's over the base data, however the requests race
  // the plan cache and the extent memo.
  SourceCatalog catalog = BiblioCatalog();
  const std::vector<TslQuery> queries = {Year97Query(), SigmodDumpQuery()};
  std::vector<std::string> expected;
  for (const TslQuery& query : queries) {
    auto oracle = Evaluate(query, catalog);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    expected.push_back(oracle->name() + "\n" + oracle->ToString() +
                       "completeness=complete");
  }
  constexpr size_t kRequests = 24;
  auto mediator = Mediator::Make(BiblioSources(), nullptr);
  ASSERT_TRUE(mediator.ok()) << mediator.status();
  ServerOptions options;
  options.threads = 8;
  QueryServer server(std::move(*mediator), catalog, options);
  std::vector<std::future<Result<ServeResponse>>> futures;
  for (size_t i = 0; i < kRequests; ++i) {
    ServeOptions serve;
    serve.seed = i;
    auto submitted = server.Submit(queries[i % queries.size()], serve);
    ASSERT_TRUE(submitted.ok()) << submitted.status();
    futures.push_back(std::move(*submitted));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<ServeResponse> response = futures[i].get();
    ASSERT_TRUE(response.ok()) << response.status();
    const DegradedAnswer& answer = response->answer;
    EXPECT_EQ(answer.result.name() + "\n" + answer.result.ToString() +
                  "completeness=" +
                  std::string(CompletenessToString(answer.completeness)),
              expected[i % queries.size()])
        << "request " << i;
  }
}

}  // namespace
}  // namespace tslrw
