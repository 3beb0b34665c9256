//! The five workloads: what is built, which requests are sent, and what
//! each must answer.
//!
//! A workload is a cyclic, seeded operation sequence per client. The
//! datasets themselves do not depend on `--seed` (the generators keep
//! their own fixed seeds), so every seed measures the same stores and only
//! the request constants, their order and the client stagger change — that
//! keeps run-to-run spread a property of the system, not of the inputs.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;
use sparql_hsp::datagen::vocab::{sp2b, RDF_TYPE};
use sparql_hsp::datagen::workload::sp_prefixes;
use sparql_hsp::datagen::{
    generate_sp2bench, generate_yago, workload, DatasetKind, Sp2BenchConfig, YagoConfig,
};
use sparql_hsp::rdf::{Term, TermId, Triple};
use sparql_hsp::serve::{ServeConfig, Server, ServerHandle};
use sparql_hsp::session::Session;
use sparql_hsp::store::{Dataset, Order, StorageBackend};
#[allow(deprecated)] // the plain in-place path is the independent reference here
use sparql_hsp::update::apply_update;

use crate::check::{digest_update, oracle, Digest, Transport};
use crate::sample::{pick, shuffle, stream, zipf_counts};

/// Target triple counts `(SP2Bench-like, YAGO-like)` of a workload; the
/// second is 0 where only the bibliographic dataset is served.
///
/// The sizes are what fits the driver's budget (every run sets up three
/// times, computes its expectations and measures for `run_seconds`, 114
/// times over): `paper14.inproc` runs at half the paper-scale 1M / 500k so
/// that ten seconds still yield ≥ 200 read samples, `repeat.tcp` at 100k so
/// that all 128 hot responses fit the 32 MiB result tier.
pub fn sizes(name: &str, quick: bool) -> (usize, usize) {
    if quick {
        return match name {
            "paper14.inproc" => (50_000, 25_000),
            _ => (50_000, 0),
        };
    }
    match name {
        "paper14.inproc" => (500_000, 250_000),
        "analytic.tcp.c2" => (500_000, 0),
        "lookup.tcp" => (1_000_000, 0),
        "repeat.tcp" => (100_000, 0),
        "readwrite.tcp" => (300_000, 0),
        other => panic!("unknown workload {other}"),
    }
}

/// Whether the whole workload — its one client, the server, the pool and
/// everything else `setup` spawns — is confined to one core. A single
/// closed-loop connection keeps exactly one of the two sides runnable at
/// any moment, so one core loses nothing; what it removes is the
/// scheduler's choice between same-core and cross-core hand-over, which on
/// a VM (cross-core wake-ups are inter-processor interrupts through the
/// hypervisor) moved every round trip by a factor of up to two from run to
/// run. The server sees one core (`available_parallelism` follows the
/// affinity mask), so these are single-core deployments; the multi-core
/// questions belong to `analytic.tcp.c2`, which is left to the scheduler.
pub fn one_core(name: &str) -> bool {
    matches!(name, "lookup.tcp" | "repeat.tcp" | "readwrite.tcp")
}

/// The system under test, as one run builds it.
pub struct Env {
    /// `[bibliographic]`, or `[bibliographic, YAGO-like]` for
    /// `paper14.inproc`. TCP workloads serve the first.
    pub sessions: Vec<Session>,
    /// The framed-TCP front door, for the `.tcp` workloads.
    pub server: Option<ServerHandle>,
}

impl Env {
    /// Triples per served dataset.
    pub fn triples(&self) -> Vec<usize> {
        self.sessions.iter().map(|s| s.snapshot().len()).collect()
    }
}

/// Typed page counts for the inproceedings: the generated literals are all
/// plain strings, over which SPARQL `SUM` / `AVG` are type errors, and the
/// analytic workload must aggregate numerically without failing.
fn add_page_counts(ds: &mut Dataset) {
    let pages = Term::iri(format!("{}pages", sp2b::SWRC));
    let page_count = Term::iri(format!("{}pageCount", sp2b::BENCH));
    let inprocs: HashSet<TermId> = subjects_of_type(ds, &sp2b::inproceedings_class())
        .into_iter()
        .collect();
    let triples: Vec<Triple> = pairs(ds, &pages)
        .into_iter()
        .filter(|(s, _)| inprocs.contains(s))
        .map(|(s, o)| {
            Triple::new(
                ds.dict().term(s).clone(),
                page_count.clone(),
                Term::typed_literal(
                    ds.dict().term(o).lexical(),
                    "http://www.w3.org/2001/XMLSchema#integer",
                ),
            )
        })
        .collect();
    ds.insert_data(&triples);
    ds.compact();
}

/// Build the system a workload runs against: generate its dataset(s),
/// build the six-order stores, open the session(s) with the product's
/// default options and, for TCP workloads, start the server. This is what
/// `setup_s` times.
pub fn setup(name: &str, quick: bool) -> Env {
    let (sp_triples, yago_triples) = sizes(name, quick);
    let mut sp = generate_sp2bench(Sp2BenchConfig::with_triples(sp_triples));
    if name == "analytic.tcp.c2" {
        add_page_counts(&mut sp);
    }
    let mut sessions = vec![Session::new(sp)];
    if yago_triples > 0 {
        sessions.push(Session::new(generate_yago(YagoConfig::with_triples(
            yago_triples,
        ))));
    }
    let server = name.ends_with(".tcp") || name.contains(".tcp.");
    let server = server.then(|| {
        Server::start(sessions[0].clone(), ServeConfig::default())
            .expect("binding an ephemeral loopback port")
    });
    Env { sessions, server }
}

/// Seconds `generate_*` takes for this workload's datasets and, of that,
/// the seconds `Dataset::from_encoded` (dictionary compaction plus the
/// six-order store build) takes on the same triples — the traced run's
/// `datagen.generate_s` (the difference) and `store.build_s`.
pub fn time_generate_and_build(name: &str, quick: bool) -> (f64, f64) {
    let (sp_triples, yago_triples) = sizes(name, quick);
    let (mut generate, mut build) = (0.0, 0.0);
    let mut time = |make: &dyn Fn() -> Dataset| {
        let start = Instant::now();
        let ds = make();
        let whole = start.elapsed().as_secs_f64();
        let triples: Vec<_> = ds
            .store()
            .scan(Order::Spo, &[])
            .iter()
            .map(|&key| Order::Spo.from_key(key))
            .collect();
        let dict = ds.dict().clone();
        let start = Instant::now();
        std::hint::black_box(Dataset::from_encoded(dict, &triples));
        let rebuilt = start.elapsed().as_secs_f64();
        build += rebuilt;
        generate += (whole - rebuilt).max(0.0);
    };
    time(&|| generate_sp2bench(Sp2BenchConfig::with_triples(sp_triples)));
    if yago_triples > 0 {
        time(&|| generate_yago(YagoConfig::with_triples(yago_triples)));
    }
    (generate, build)
}

/// One operation of a workload.
#[derive(Debug, Clone)]
pub struct Op {
    /// `UPDATE` rather than `QUERY`.
    pub write: bool,
    /// Which of [`Env::sessions`] it addresses (in-process workloads).
    pub target: usize,
    /// The request text — all the program under test ever sees.
    pub text: String,
    /// What a correct response digests to.
    pub expect: Digest,
}

/// The seeded operation plan of one workload.
pub struct Plan {
    pub transport: Transport,
    /// The `k=v` option string every TCP request carries.
    pub opts: &'static str,
    /// The thread budget the requests carry, for in-process clients and the
    /// traced run's shadow session (`None` = the engine's own default, as a
    /// bare TCP request gets).
    pub threads: Option<usize>,
    /// One cyclic operation sequence per closed-loop client.
    pub clients: Vec<Vec<Op>>,
    /// Operations between two looks at the clock. A pass is a unit with a
    /// fixed request mix (and, for `readwrite.tcp`, a store that is back in
    /// its starting state), so every run measures whole units.
    pub pass_len: usize,
    /// The traced run attributes one request in this many to the layers.
    pub sample_every: usize,
    /// Passes per client in the traced section. A fixed count, so that its
    /// exact counters repeat from run to run.
    pub trace_passes: usize,
    /// The CPU client threads pin themselves to (see [`one_core`]); set by
    /// the caller that also placed the server.
    pub client_core: Option<usize>,
}

impl Plan {
    /// Distinct request texts across all clients.
    pub fn distinct_requests(&self) -> usize {
        let texts: HashSet<&str> = self
            .clients
            .iter()
            .flatten()
            .map(|op| op.text.as_str())
            .collect();
        texts.len()
    }
}

/// How many distinct join requests per plan are also run through the CDP
/// baseline's plan. CDP consults the data to plan (about 8 ms per query at
/// 1M triples), so checking all 8,192 lookups would cost a minute a run.
const CDP_CROSS_CHECKS: usize = 64;

/// Read-only expectations, computed once per distinct text.
struct Expectations<'a> {
    datasets: Vec<std::sync::Arc<Dataset>>,
    transport: Transport,
    known: HashMap<&'a str, Digest>,
}

impl<'a> Expectations<'a> {
    fn new(env: &Env, transport: Transport) -> Self {
        Expectations {
            datasets: env.sessions.iter().map(Session::snapshot).collect(),
            transport,
            known: HashMap::new(),
        }
    }

    fn read(&mut self, target: usize, text: &'a str) -> Result<Op, String> {
        let expect = match self.known.get(text) {
            Some(&digest) => digest,
            None => {
                let cross_check = self.known.len() < CDP_CROSS_CHECKS;
                let digest = oracle(&self.datasets[target], text, self.transport, cross_check)?;
                self.known.insert(text, digest);
                digest
            }
        };
        Ok(Op {
            write: false,
            target,
            text: text.to_string(),
            expect,
        })
    }
}

/// Build the plan of workload `name` for `seed` against `env`, computing
/// every expectation by the independent path.
pub fn plan(name: &str, env: &Env, seed: u64) -> Result<Plan, String> {
    match name {
        "paper14.inproc" => paper14(env, seed),
        "analytic.tcp.c2" => analytic(env, seed),
        "lookup.tcp" => lookup(env, seed),
        "repeat.tcp" => repeat(env, seed),
        "readwrite.tcp" => readwrite(env, seed),
        other => Err(format!("unknown workload `{other}`")),
    }
}

// ---------------------------------------------------------------- paper14

/// Round-robin passes over the paper's 14 queries, each pass in its own
/// seeded order; four passes make the cycle.
fn paper14(env: &Env, seed: u64) -> Result<Plan, String> {
    let queries = workload();
    let mut rng = stream(seed, "paper14.order");
    let mut expectations = Expectations::new(env, Transport::InProc);
    let mut ops = Vec::new();
    for _ in 0..4 {
        let mut order: Vec<usize> = (0..queries.len()).collect();
        shuffle(&mut order, &mut rng);
        for i in order {
            let target = usize::from(queries[i].dataset == DatasetKind::Yago);
            ops.push(expectations.read(target, queries[i].text)?);
        }
    }
    Ok(Plan {
        transport: Transport::InProc,
        opts: "",
        threads: Some(1),
        clients: vec![ops],
        pass_len: queries.len(),
        sample_every: 2,
        trace_passes: 6,
        client_core: None,
    })
}

// --------------------------------------------------------------- analytic

/// Queries outside the join fragment (and two inside it that take the γ
/// breaker and streaming DISTINCT), over the bibliographic vocabulary.
const ANALYTIC_BODIES: [&str; 9] = [
    // OPTIONAL
    "SELECT ?a ?m WHERE { ?a rdf:type bench:Article . ?a dcterms:issued \"1990\" . \
     OPTIONAL { ?a swrc:month ?m . } }",
    // nested OPTIONAL
    "SELECT ?a ?au ?hp WHERE { ?a rdf:type bench:Article . ?a dcterms:issued \"1991\" . \
     OPTIONAL { ?a dc:creator ?au . OPTIONAL { ?au foaf:homepage ?hp . } } }",
    // UNION
    "SELECT ?x ?y WHERE { { ?x rdf:type bench:Journal . ?x dcterms:issued ?y . } \
     UNION { ?x rdf:type bench:Proceedings . ?x dcterms:issued ?y . } }",
    // FILTER regex
    "SELECT ?a ?t WHERE { ?a rdf:type bench:Inproceedings . ?a dc:title ?t . \
     FILTER regex(?t, \"Title 1[0-9]*7$\") }",
    // GROUP BY / HAVING with COUNT, SUM, AVG
    "SELECT ?y (COUNT(?a) AS ?n) (SUM(?pc) AS ?total) (AVG(?pc) AS ?mean) WHERE { \
     ?a rdf:type bench:Inproceedings . ?a dcterms:issued ?y . ?a bench:pageCount ?pc . } \
     GROUP BY ?y HAVING (COUNT(?a) > 10)",
    // DISTINCT
    "SELECT DISTINCT ?au WHERE { ?a rdf:type bench:Article . ?a dc:creator ?au . }",
    // ORDER BY + LIMIT (titles are unique, so the cut is deterministic)
    "SELECT ?a ?t WHERE { ?a rdf:type bench:Inproceedings . ?a dc:title ?t . \
     ?a dcterms:issued \"2001\" . } ORDER BY ?t LIMIT 50",
    // ASK
    "ASK { ?a rdf:type bench:Article . ?a swrc:month \"12\" . ?a dcterms:issued \"1999\" . }",
    // OPTIONAL + FILTER !bound (negation by failure)
    "SELECT ?a WHERE { ?a rdf:type bench:Article . ?a dcterms:issued \"1992\" . \
     OPTIONAL { ?a swrc:month ?m . } FILTER (!bound(?m)) }",
];

/// The bibliographic half of the paper's workload.
fn sp_queries() -> Vec<&'static str> {
    workload()
        .into_iter()
        .filter(|q| q.dataset == DatasetKind::Sp2Bench)
        .map(|q| q.text)
        .collect()
}

/// Two connections, each looping over the SP queries plus
/// [`ANALYTIC_BODIES`], staggered half a pass apart from a seeded offset.
fn analytic(env: &Env, seed: u64) -> Result<Plan, String> {
    let mut texts: Vec<String> = sp_queries().into_iter().map(String::from).collect();
    texts.extend(
        ANALYTIC_BODIES
            .iter()
            .map(|body| format!("{}{body}", sp_prefixes())),
    );
    // Interleave heavy and light requests the same way for every seed; the
    // seed only moves where in the loop each client starts.
    let mut expectations = Expectations::new(env, Transport::Tcp);
    let pass: Vec<Op> = texts
        .iter()
        .map(|text| expectations.read(0, text))
        .collect::<Result<_, _>>()?;
    let stagger = stream(seed, "analytic.stagger").random_range(0..pass.len());
    let clients = (0..2)
        .map(|c| {
            let mut ops = pass.clone();
            ops.rotate_left((stagger + c * pass.len() / 2) % pass.len());
            ops
        })
        .collect();
    Ok(Plan {
        transport: Transport::Tcp,
        opts: "threads=2 cache=off",
        threads: Some(2),
        clients,
        pass_len: pass.len(),
        sample_every: 4,
        trace_passes: 4,
        client_core: None,
    })
}

// ---------------------------------------------------------------- lookups

/// Constant pools harvested from a generated bibliographic dataset, for the
/// selective lookup templates. At the 1M target every pool holds well over
/// 20,000 values.
struct Pools {
    articles: Vec<Term>,
    article_titles: Vec<Term>,
    inprocs: Vec<Term>,
    see_also: Vec<Term>,
    /// Persons that publish a homepage.
    homepage_owners: Vec<Term>,
    /// Distinct `(issued, pages)`, `(creator, issued)` and
    /// `(journal, issued)` combinations over the articles.
    year_pages: Vec<(Term, Term)>,
    author_years: Vec<(Term, Term)>,
    journal_years: Vec<(Term, Term)>,
}

fn iri_id(ds: &Dataset, iri: &str) -> Option<TermId> {
    ds.id_of(&Term::iri(iri))
}

/// `(subject, object)` of every triple with predicate `p`, subject-sorted.
fn pairs(ds: &Dataset, p: &Term) -> Vec<(TermId, TermId)> {
    let Some(p) = ds.id_of(p) else {
        return Vec::new();
    };
    ds.store()
        .scan(Order::Pso, &[p])
        .iter()
        .map(|key| (key[1], key[2]))
        .collect()
}

fn subjects_of_type(ds: &Dataset, class: &str) -> Vec<TermId> {
    let (Some(ty), Some(class)) = (iri_id(ds, RDF_TYPE), iri_id(ds, class)) else {
        return Vec::new();
    };
    ds.store()
        .scan(Order::Pos, &[ty, class])
        .iter()
        .map(|key| key[2])
        .collect()
}

impl Pools {
    /// Everything comes out in id order, which is generation order: fixed.
    fn harvest(ds: &Dataset) -> Pools {
        let term = |id: TermId| ds.dict().term(id).clone();
        let terms = |ids: Vec<TermId>| ids.into_iter().map(term).collect::<Vec<Term>>();
        let pred = |ns: &str, local: &str| Term::iri(format!("{ns}{local}"));
        let articles = subjects_of_type(ds, &sp2b::article_class());
        let article_set: HashSet<TermId> = articles.iter().copied().collect();
        let of_articles = |p: Term| -> HashMap<TermId, TermId> {
            pairs(ds, &p)
                .into_iter()
                .filter(|(s, _)| article_set.contains(s))
                .collect()
        };
        let titles = of_articles(pred(sp2b::DC, "title"));
        // Inproceedings carry a `foaf:homepage` too; persons have a name.
        let persons: HashSet<TermId> = pairs(ds, &pred(sp2b::FOAF, "name"))
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        let issued = of_articles(pred(sp2b::DCTERMS, "issued"));
        // Distinct `(left, issued)` combinations over the articles, with
        // `left` the article's object under `p`.
        let with_year = |p: Term, left_first: bool| -> Vec<(Term, Term)> {
            let left = of_articles(p);
            let mut combos: Vec<(TermId, TermId)> = articles
                .iter()
                .filter_map(|a| Some((*left.get(a)?, *issued.get(a)?)))
                .collect();
            combos.sort_unstable();
            combos.dedup();
            combos
                .into_iter()
                .map(|(l, y)| {
                    if left_first {
                        (term(l), term(y))
                    } else {
                        (term(y), term(l))
                    }
                })
                .collect()
        };
        Pools {
            article_titles: terms(
                articles
                    .iter()
                    .filter_map(|a| titles.get(a).copied())
                    .collect(),
            ),
            inprocs: terms(subjects_of_type(ds, &sp2b::inproceedings_class())),
            see_also: terms(
                pairs(ds, &pred(sp2b::RDFS, "seeAlso"))
                    .into_iter()
                    .map(|(_, o)| o)
                    .collect(),
            ),
            homepage_owners: terms(
                pairs(ds, &pred(sp2b::FOAF, "homepage"))
                    .into_iter()
                    .map(|(s, _)| s)
                    .filter(|s| persons.contains(s))
                    .collect(),
            ),
            year_pages: with_year(pred(sp2b::SWRC, "pages"), false),
            author_years: with_year(pred(sp2b::DC, "creator"), true),
            journal_years: with_year(pred(sp2b::SWRC, "journal"), true),
            articles: terms(articles),
        }
    }

    fn smallest(&self) -> usize {
        [
            self.articles.len(),
            self.article_titles.len(),
            self.inprocs.len(),
            self.see_also.len(),
            self.homepage_owners.len(),
            self.year_pages.len(),
            self.author_years.len(),
            self.journal_years.len(),
        ]
        .into_iter()
        .min()
        .unwrap_or(0)
    }
}

/// Number of lookup templates.
const TEMPLATES: usize = 8;

/// Instantiate selective template `t` with constants drawn from `pools`:
/// subject- and object-bound stars and single patterns that return a
/// handful of rows. Every pattern carries a bound subject or object, so
/// each scan is a short prefix range and engine work stays in the
/// microseconds. Chains are left out on purpose: without a bind join their
/// unbound link scans a whole predicate extent (tens of thousands of rows
/// at 1M triples), which would make this an engine workload.
fn lookup_text(t: usize, pools: &Pools, rng: &mut StdRng) -> String {
    let p = |ns: &str, local: &str| format!("<{ns}{local}>");
    let title = p(sp2b::DC, "title");
    let issued = p(sp2b::DCTERMS, "issued");
    match t % TEMPLATES {
        0 => {
            let a = pick(&pools.articles, rng);
            format!(
                "SELECT ?t ?y ?pg WHERE {{ {a} {title} ?t . {a} {issued} ?y . {a} {} ?pg . }}",
                p(sp2b::SWRC, "pages")
            )
        }
        1 => {
            let i = pick(&pools.inprocs, rng);
            format!(
                "SELECT ?t ?bt ?y ?proc WHERE {{ {i} {title} ?t . {i} {} ?bt . \
                 {i} {issued} ?y . {i} {} ?proc . }}",
                p(sp2b::BENCH, "booktitle"),
                p(sp2b::DCTERMS, "partOf")
            )
        }
        2 => {
            let person = pick(&pools.homepage_owners, rng);
            format!(
                "SELECT ?n ?hp WHERE {{ {person} {} ?n . {person} {} ?hp . }}",
                p(sp2b::FOAF, "name"),
                p(sp2b::FOAF, "homepage")
            )
        }
        3 => {
            let (year, pages) = pick(&pools.year_pages, rng);
            format!(
                "SELECT ?a WHERE {{ ?a {} {pages} . ?a {issued} {year} . }}",
                p(sp2b::SWRC, "pages")
            )
        }
        4 => format!(
            "SELECT ?a WHERE {{ ?a {title} {} . }}",
            pick(&pools.article_titles, rng)
        ),
        5 => {
            let (author, year) = pick(&pools.author_years, rng);
            format!(
                "SELECT ?a WHERE {{ ?a {} {author} . ?a {issued} {year} . }}",
                p(sp2b::DC, "creator")
            )
        }
        6 => format!(
            "SELECT ?ip WHERE {{ ?ip {} {} . }}",
            p(sp2b::RDFS, "seeAlso"),
            pick(&pools.see_also, rng)
        ),
        _ => {
            let (journal, year) = pick(&pools.journal_years, rng);
            format!(
                "SELECT ?a WHERE {{ ?a {} {journal} . ?a {issued} {year} . }}",
                p(sp2b::SWRC, "journal")
            )
        }
    }
}

/// Length of the `lookup.tcp` cycle: eight times the 1024-entry result
/// tier, so a request recurs only long after its entry was evicted.
const LOOKUP_CYCLE: usize = 8_192;

fn lookup(env: &Env, seed: u64) -> Result<Plan, String> {
    let pools = Pools::harvest(&env.sessions[0].snapshot());
    if pools.smallest() == 0 {
        return Err("lookup.tcp: a constant pool came back empty".into());
    }
    let mut rng = stream(seed, "lookup.constants");
    let texts: Vec<String> = (0..LOOKUP_CYCLE)
        .map(|i| lookup_text(i, &pools, &mut rng))
        .collect();
    let mut expectations = Expectations::new(env, Transport::Tcp);
    let ops = texts
        .iter()
        .map(|text| expectations.read(0, text))
        .collect::<Result<_, _>>()?;
    Ok(Plan {
        transport: Transport::Tcp,
        opts: "",
        threads: None,
        clients: vec![ops],
        pass_len: 1_024,
        sample_every: 16,
        trace_passes: 16,
        client_core: None,
    })
}

// ----------------------------------------------------------------- repeat

/// Hot-set size and cycle length of `repeat.tcp`.
const HOT_SET: usize = 128;
const REPEAT_CYCLE: usize = 1_024;

/// The paper queries of the hot set in rank order (ranks 8, 16, …, 80).
/// The two big stars come first: a cached SP2a or SP2b response (same
/// rows, ~0.1 MB at this size) is then what 36 of a pass's 1,024 slots
/// cost, and the pass's 95th-percentile slot falls in the middle of that
/// plateau instead of on the cliff between lookups and heavy responses,
/// where it would swing by tens of percent from run to run.
const HOT_PAPER_QUERIES: [&str; 10] = [
    "SP2a", "SP2b", "SP5", "SP3b", "SP3a", "SP6", "SP4b", "SP1", "SP3c", "SP4a",
];

/// A hot set of 128 requests — the ten bibliographic paper queries at
/// fixed ranks 8, 16, …, 80 and 118 seeded lookups at the others — in
/// exact Zipf(1) proportion, shuffled by seed. The heavy queries keep
/// their ranks so that every seed ships the same bytes.
fn repeat(env: &Env, seed: u64) -> Result<Plan, String> {
    let pools = Pools::harvest(&env.sessions[0].snapshot());
    if pools.smallest() == 0 {
        return Err("repeat.tcp: a constant pool came back empty".into());
    }
    let mut rng = stream(seed, "repeat.constants");
    let paper = workload();
    let mut heavy = HOT_PAPER_QUERIES.iter().map(|id| {
        paper
            .iter()
            .find(|q| q.id == *id)
            .map(|q| q.text)
            .expect("a paper query by that id")
    });
    let mut hot: Vec<String> = Vec::with_capacity(HOT_SET);
    let mut lookups: HashSet<String> = HashSet::new();
    for rank in 1..=HOT_SET {
        let from_paper = if rank % 8 == 0 { heavy.next() } else { None };
        hot.push(match from_paper {
            Some(text) => text.to_string(),
            None => loop {
                let text = lookup_text(rank, &pools, &mut rng);
                if lookups.insert(text.clone()) {
                    break text;
                }
            },
        });
    }
    let mut expectations = Expectations::new(env, Transport::Tcp);
    let mut ops: Vec<Op> = Vec::with_capacity(REPEAT_CYCLE);
    for (text, count) in hot.iter().zip(zipf_counts(HOT_SET, REPEAT_CYCLE)) {
        let op = expectations.read(0, text)?;
        ops.extend(std::iter::repeat_n(op, count));
    }
    shuffle(&mut ops, &mut stream(seed, "repeat.order"));
    Ok(Plan {
        transport: Transport::Tcp,
        opts: "",
        threads: None,
        clients: vec![ops],
        pass_len: REPEAT_CYCLE,
        sample_every: 16,
        trace_passes: 16,
        client_core: None,
    })
}

// -------------------------------------------------------------- readwrite

/// Triples per write batch, regular batches per half cycle, reads per
/// write, and how many regular writes separate two `DELETE WHERE` pairs.
const BATCH_TRIPLES: usize = 64;
const BATCHES: usize = 64;
const READS_PER_WRITE: usize = 4;
const PAIR_EVERY: usize = 32;

fn data_block(verb: &str, triples: &[Triple]) -> String {
    let mut text = format!("{verb} DATA {{\n");
    for t in triples {
        text.push_str(&t.to_string());
        text.push('\n');
    }
    text.push('}');
    text
}

/// Append one read from each of `sets`, with the answer `sim` gives now.
fn push_reads(
    sim: &Dataset,
    sets: &[&Vec<String>; READS_PER_WRITE],
    rng: &mut StdRng,
    ops: &mut Vec<Op>,
) -> Result<(), String> {
    for set in sets {
        let text = pick(set, rng);
        ops.push(Op {
            write: false,
            target: 0,
            text: text.clone(),
            expect: oracle(sim, text, Transport::Tcp, ops.len() < CDP_CROSS_CHECKS)?,
        });
    }
    Ok(())
}

/// Apply `text` to `sim` through plain `apply_update` and append it with
/// the response header a correct server sends.
#[allow(deprecated)]
fn push_write(sim: &mut Dataset, ops: &mut Vec<Op>, text: String) -> Result<(), String> {
    let stats = apply_update(sim, &text).map_err(|e| format!("replaying a write: {e}"))?;
    ops.push(Op {
        write: true,
        target: 0,
        expect: digest_update(
            stats.inserted as u64,
            stats.deleted as u64,
            sim.len() as u64,
        ),
        text,
    });
    Ok(())
}

/// Four reads to one write on one connection. A cycle inserts 64 batches of
/// 64 fresh triples (32 new subjects with a `swrc:month` and a
/// `dcterms:issued` each), then deletes them again, and after every 32nd
/// regular write runs a `DELETE WHERE` over one month/year combination
/// followed by an `INSERT DATA` of exactly what it removed — so the store
/// is back in its starting state when the cycle ends, having crossed the
/// default compaction threshold (4096 delta rows) on the way up and on the
/// way down. Two of each four reads join or count over the written
/// predicates, two look up untouched ones; all are drawn from small hot
/// sets, so untouched reads stay cached while every write invalidates the
/// touched ones.
///
/// Expectations depend on the position in the cycle: they come from
/// replaying the cycle once on a private clone through plain
/// `apply_update` and the oracle.
fn readwrite(env: &Env, seed: u64) -> Result<Plan, String> {
    let base = env.sessions[0].snapshot();
    let pools = Pools::harvest(&base);
    if pools.smallest() == 0 {
        return Err("readwrite.tcp: a constant pool came back empty".into());
    }
    let month_p = Term::iri(format!("{}month", sp2b::SWRC));
    let issued_p = Term::iri(format!("{}issued", sp2b::DCTERMS));
    let mut rng = stream(seed, "readwrite.constants");
    let month = |rng: &mut StdRng| Term::literal(rng.random_range(1..=12).to_string());
    let year = |rng: &mut StdRng| Term::literal(rng.random_range(1940..2011).to_string());

    // Hot read sets: 16 month×year joins and the 12 month counts touch the
    // written predicates; 32 lookups (templates 1 and 7) do not.
    let touched_join: Vec<String> = (0..16)
        .map(|_| {
            format!(
                "SELECT ?a WHERE {{ ?a {month_p} {} . ?a {issued_p} {} . }}",
                month(&mut rng),
                year(&mut rng)
            )
        })
        .collect();
    let touched_count: Vec<String> = (1..=12)
        .map(|m| format!("SELECT (COUNT(?a) AS ?n) WHERE {{ ?a {month_p} \"{m}\" . }}"))
        .collect();
    let untouched: Vec<String> = (0..32)
        .map(|i| lookup_text(if i % 2 == 0 { 2 } else { 4 }, &pools, &mut rng))
        .collect();

    // Regular writes: BATCHES inserts, then the matching deletes.
    let batches: Vec<Vec<Triple>> = (0..BATCHES)
        .map(|b| {
            (0..BATCH_TRIPLES / 2)
                .flat_map(|j| {
                    let s = Term::iri(format!("{}ArticleW{b}_{j}", sp2b::NS));
                    [
                        Triple::new(s.clone(), month_p.clone(), month(&mut rng)),
                        Triple::new(s, issued_p.clone(), year(&mut rng)),
                    ]
                })
                .collect()
        })
        .collect();
    let mut regular: Vec<String> = batches.iter().map(|b| data_block("INSERT", b)).collect();
    regular.extend(batches.iter().map(|b| data_block("DELETE", b)));

    // Replay the cycle on a clone that never compacts (content is what
    // matters here), recording what each position must answer.
    let mut sim = (*base).clone();
    sim.set_compaction_threshold(Some(usize::MAX));
    let mut order_rng = stream(seed, "readwrite.order");
    let mut ops: Vec<Op> = Vec::new();
    let reads = [&touched_join, &untouched, &touched_count, &untouched];
    for (i, text) in regular.into_iter().enumerate() {
        push_reads(&sim, &reads, &mut order_rng, &mut ops)?;
        push_write(&mut sim, &mut ops, text)?;
        if (i + 1) % PAIR_EVERY != 0 {
            continue;
        }
        // The DELETE WHERE / re-insert pair: what the second half must put
        // back is whatever matches in the state the first half meets.
        let (m, y) = (month(&mut order_rng), year(&mut order_rng));
        let with_month: HashSet<TermId> = pairs(&sim, &month_p)
            .into_iter()
            .filter(|&(_, o)| sim.id_of(&m) == Some(o))
            .map(|(s, _)| s)
            .collect();
        let doomed: Vec<Triple> = pairs(&sim, &issued_p)
            .into_iter()
            .filter(|&(s, o)| with_month.contains(&s) && sim.id_of(&y) == Some(o))
            .flat_map(|(s, _)| {
                let s = sim.dict().term(s).clone();
                [
                    Triple::new(s.clone(), month_p.clone(), m.clone()),
                    Triple::new(s, issued_p.clone(), y.clone()),
                ]
            })
            .collect();
        push_reads(&sim, &reads, &mut order_rng, &mut ops)?;
        push_write(
            &mut sim,
            &mut ops,
            format!("DELETE WHERE {{ ?a {month_p} {m} . ?a {issued_p} {y} . }}"),
        )?;
        push_reads(&sim, &reads, &mut order_rng, &mut ops)?;
        push_write(&mut sim, &mut ops, data_block("INSERT", &doomed))?;
    }
    if sim.len() != base.len() {
        return Err(format!(
            "readwrite.tcp: the cycle leaves {} triples, started with {}",
            sim.len(),
            base.len()
        ));
    }
    Ok(Plan {
        transport: Transport::Tcp,
        opts: "",
        threads: None,
        pass_len: ops.len(),
        clients: vec![ops],
        sample_every: 8,
        trace_passes: 5,
        client_core: None,
    })
}

/// Replay `writes` on `base` through plain `apply_update` and digest the
/// result as `(triples, order-insensitive hash of the N-Triples lines)`.
#[allow(deprecated)]
pub fn replay_writes<'a>(
    base: &Dataset,
    writes: impl Iterator<Item = &'a str>,
) -> Result<Digest, String> {
    let mut ds = base.clone();
    // Compaction is content-neutral; skipping it keeps the replay short.
    ds.set_compaction_threshold(Some(usize::MAX));
    for text in writes {
        apply_update(&mut ds, text).map_err(|e| format!("replaying a write: {e}"))?;
    }
    Ok(digest_dataset(&ds))
}

/// `(triples, order-insensitive hash of the N-Triples lines)` of `ds`.
pub fn digest_dataset(ds: &Dataset) -> Digest {
    let hash = ds.to_ntriples().lines().fold(0u64, |sum, line| {
        sum.wrapping_add(crate::sample::fnv1a(line.as_bytes()))
    });
    Digest {
        rows: ds.len() as u64,
        hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signature(plan: &Plan) -> u64 {
        let mut bytes = Vec::new();
        for op in plan.clients.iter().flatten() {
            bytes.extend_from_slice(op.text.as_bytes());
            bytes.extend_from_slice(&op.expect.hash.to_le_bytes());
        }
        crate::sample::fnv1a(&bytes)
    }

    #[test]
    fn same_seed_same_operation_sequence() {
        for name in ["repeat.tcp", "readwrite.tcp"] {
            let env = setup(name, true);
            let a = plan(name, &env, 5).unwrap();
            let b = plan(name, &env, 5).unwrap();
            let c = plan(name, &env, 6).unwrap();
            assert_eq!(signature(&a), signature(&b), "{name}");
            assert_ne!(signature(&a), signature(&c), "{name}");
        }
    }

    #[test]
    fn repeat_cycle_is_zipf_over_128_requests_with_fixed_heavy_ranks() {
        let env = setup("repeat.tcp", true);
        let plan = plan("repeat.tcp", &env, 1).unwrap();
        assert_eq!(plan.distinct_requests(), HOT_SET);
        assert_eq!(plan.clients[0].len(), REPEAT_CYCLE);
        let sp2a = sp_queries()[1];
        let uses = plan.clients[0].iter().filter(|op| op.text == sp2a).count();
        assert_eq!(uses, zipf_counts(HOT_SET, REPEAT_CYCLE)[7]);
    }

    #[test]
    fn readwrite_cycle_mixes_four_reads_per_write_and_returns_to_start() {
        let env = setup("readwrite.tcp", true);
        let plan = plan("readwrite.tcp", &env, 1).unwrap();
        let ops = &plan.clients[0];
        let writes = ops.iter().filter(|op| op.write).count();
        assert_eq!(writes, 2 * BATCHES + 2 * (2 * BATCHES / PAIR_EVERY));
        assert_eq!(ops.len(), writes * (READS_PER_WRITE + 1));
        assert!(ops.iter().any(|op| op.text.starts_with("DELETE WHERE")));
        let base = env.sessions[0].snapshot();
        let replayed = replay_writes(
            &base,
            ops.iter().filter(|op| op.write).map(|op| op.text.as_str()),
        )
        .unwrap();
        assert_eq!(replayed, digest_dataset(&base));
    }
}
