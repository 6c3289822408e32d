//! The parametric annotation generator (Sect. 6.1).
//!
//! "We use a generic annotation generator that creates parameterized belief
//! annotations. We model annotation skew as discrete probability
//! distributions `Pr[k = x]` of the nesting depth of annotations [...] and
//! user participation as either uniform or following a generalized Zipf
//! distribution."
//!
//! The generator produces an endless stream of *candidate* belief
//! statements; [`populate`] ingests candidates into a BDMS until exactly
//! `n` annotations were accepted (inconsistent candidates are rejected by
//! Algorithm 4 and retried with fresh ones), mirroring the paper's setup of
//! "n = 10,000 annotations" per database.

use crate::depth::DepthDist;
use crate::participation::{Participation, UserSampler};
use beliefdb_core::{
    Bdms, BeliefDatabase, BeliefError, BeliefStatement, DefaultPolicy, ExternalSchema, GroundTuple,
    Result, Sign, UserId,
};
use beliefdb_storage::{Row, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The single-relation experiment schema of Sect. 6: the running example
/// "neglecting the comments table".
pub fn experiment_schema() -> ExternalSchema {
    ExternalSchema::new().with_relation("S", &["sid", "uid", "species", "date", "location"])
}

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Number of users `m`.
    pub users: usize,
    /// Number of annotations `n` to ingest.
    pub annotations: usize,
    /// Who writes annotations.
    pub participation: Participation,
    /// Nesting-depth pmf `Pr[d = x]`.
    pub depth: DepthDist,
    /// Number of distinct external keys (sightings under discussion).
    /// Smaller = more conflicts and more annotation clustering.
    pub key_space: usize,
    /// Distinct species values per key — the alternatives users argue about.
    pub species_pool: usize,
    /// Probability that an annotation with depth ≥ 1 is a negative belief.
    pub negative_rate: f64,
    /// RNG seed (generation is fully deterministic given the config).
    pub seed: u64,
}

impl GeneratorConfig {
    /// A reasonable default: `m` users, `n` annotations, a key space that
    /// clusters ~5 annotations per sighting, and a quarter of annotations
    /// disagreeing.
    pub fn new(users: usize, annotations: usize) -> Self {
        GeneratorConfig {
            users,
            annotations,
            participation: Participation::Uniform,
            depth: DepthDist::uniform_012(),
            key_space: (annotations / 5).max(1),
            species_pool: 8,
            negative_rate: 0.25,
            seed: 42,
        }
    }

    pub fn with_participation(mut self, p: Participation) -> Self {
        self.participation = p;
        self
    }

    pub fn with_depth(mut self, d: DepthDist) -> Self {
        self.depth = d;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_key_space(mut self, keys: usize) -> Self {
        self.key_space = keys.max(1);
        self
    }

    pub fn with_negative_rate(mut self, rate: f64) -> Self {
        self.negative_rate = rate;
        self
    }
}

/// An endless stream of candidate belief statements.
pub struct CandidateStream {
    rng: StdRng,
    sampler: UserSampler,
    depth: DepthDist,
    key_space: usize,
    species_pool: usize,
    negative_rate: f64,
    rel: beliefdb_core::RelId,
}

impl CandidateStream {
    pub fn new(cfg: &GeneratorConfig) -> Self {
        let schema = experiment_schema();
        CandidateStream {
            rng: StdRng::seed_from_u64(cfg.seed),
            sampler: UserSampler::new(&cfg.participation, cfg.users),
            depth: cfg.depth.clone(),
            key_space: cfg.key_space,
            species_pool: cfg.species_pool,
            negative_rate: cfg.negative_rate,
            rel: schema.relation_id("S").expect("schema has S"),
        }
    }

    /// Produce the next candidate statement.
    pub fn next_candidate(&mut self) -> BeliefStatement {
        let depth = self.depth.sample(&mut self.rng);
        // Belief path: adjacent-distinct users from the participation
        // distribution (resample on repeats; with ≥ 2 users this halts
        // quickly, with 1 user only depth ≤ 1 paths exist).
        let mut users: Vec<UserId> = Vec::with_capacity(depth);
        for _ in 0..depth {
            loop {
                let u = UserId(self.sampler.sample(&mut self.rng) as u32);
                if users.last() != Some(&u) {
                    users.push(u);
                    break;
                }
                if self.sampler.len() == 1 {
                    break; // cannot extend further
                }
            }
        }
        let path =
            beliefdb_core::BeliefPath::new(users).expect("adjacent-distinct by construction");

        let key_idx = self.rng.gen_range(0..self.key_space);
        let species_idx = self.rng.gen_range(0..self.species_pool);
        let reporter = self.sampler.sample(&mut self.rng);
        let location_idx = key_idx % 17;
        let row = Row::new([
            Value::str(format!("s{key_idx}")),
            Value::str(format!("u{reporter}")),
            Value::str(format!("species{species_idx}")),
            Value::str("6-14-08"),
            Value::str(format!("loc{location_idx}")),
        ]);
        let sign = if !path.is_root() && self.rng.gen_bool(self.negative_rate) {
            Sign::Neg
        } else {
            // Fig. 1's grammar only allows `not` after a BELIEF prefix:
            // root-world inserts are always positive.
            Sign::Pos
        };
        BeliefStatement::new(path, GroundTuple::new(self.rel, row), sign)
    }
}

/// Outcome counts of one ingest run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PopulateReport {
    /// Annotations accepted (the paper's `n`).
    pub accepted: usize,
    /// Candidates rejected by the consistency gate (Alg. 4 line 5).
    pub rejected: usize,
    /// Candidates that were already present.
    pub duplicates: usize,
}

impl PopulateReport {
    pub fn attempts(&self) -> usize {
        self.accepted + self.rejected + self.duplicates
    }
}

/// Create a BDMS with `cfg.users` registered users (named `u1..um`), under
/// the default policy.
pub fn fresh_bdms(cfg: &GeneratorConfig) -> Result<Bdms> {
    fresh_bdms_with_policy(cfg, DefaultPolicy::default())
}

/// [`fresh_bdms`] under an explicit default policy.
pub fn fresh_bdms_with_policy(cfg: &GeneratorConfig, policy: DefaultPolicy) -> Result<Bdms> {
    let mut bdms = Bdms::with_policy(experiment_schema(), policy)?;
    for i in 1..=cfg.users {
        bdms.add_user(format!("u{i}"))?;
    }
    Ok(bdms)
}

/// Ingest candidates into `bdms` until `cfg.annotations` were accepted.
pub fn populate(bdms: &mut Bdms, cfg: &GeneratorConfig) -> Result<PopulateReport> {
    let mut stream = CandidateStream::new(cfg);
    let mut report = PopulateReport::default();
    // Safety valve: tiny key spaces can saturate (every candidate conflicts
    // or duplicates); bail out rather than spin forever.
    let max_attempts = cfg.annotations.saturating_mul(50).max(10_000);
    while report.accepted < cfg.annotations {
        if report.attempts() >= max_attempts {
            return Err(BeliefError::Inconsistent(format!(
                "generator saturated after {} attempts ({} accepted); \
                 enlarge key_space or species_pool",
                report.attempts(),
                report.accepted
            )));
        }
        let stmt = stream.next_candidate();
        match bdms.insert_statement(&stmt)? {
            o if o.changed() => report.accepted += 1,
            beliefdb_core::internal::InsertOutcome::AlreadyExplicit => report.duplicates += 1,
            _ => report.rejected += 1,
        }
    }
    Ok(report)
}

/// Generate a whole BDMS in one call, under the default policy.
pub fn generate_bdms(cfg: &GeneratorConfig) -> Result<(Bdms, PopulateReport)> {
    generate_bdms_with_policy(cfg, DefaultPolicy::default())
}

/// [`generate_bdms`] under an explicit default policy:
/// [`DefaultPolicy::Eager`] is the store the paper's Table 1 and Fig. 6
/// measure.
pub fn generate_bdms_with_policy(
    cfg: &GeneratorConfig,
    policy: DefaultPolicy,
) -> Result<(Bdms, PopulateReport)> {
    let mut bdms = fresh_bdms_with_policy(cfg, policy)?;
    let report = populate(&mut bdms, cfg)?;
    Ok((bdms, report))
}

/// Ingest candidates into a *logical* belief database (for the in-memory
/// closure/Kripke ablations) with the same acceptance semantics.
pub fn generate_logical(cfg: &GeneratorConfig) -> Result<(BeliefDatabase, PopulateReport)> {
    let mut db = BeliefDatabase::new(experiment_schema());
    for i in 1..=cfg.users {
        db.add_user(format!("u{i}"))?;
    }
    let mut stream = CandidateStream::new(cfg);
    let mut report = PopulateReport::default();
    let max_attempts = cfg.annotations.saturating_mul(50).max(10_000);
    while report.accepted < cfg.annotations {
        if report.attempts() >= max_attempts {
            return Err(BeliefError::Inconsistent(
                "generator saturated; enlarge key_space or species_pool".into(),
            ));
        }
        let stmt = stream.next_candidate();
        match db.insert(stmt) {
            Ok(true) => report.accepted += 1,
            Ok(false) => report.duplicates += 1,
            Err(BeliefError::Inconsistent(_)) => report.rejected += 1,
            Err(e) => return Err(e),
        }
    }
    Ok((db, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_are_deterministic_per_seed() {
        let cfg = GeneratorConfig::new(5, 100).with_seed(9);
        let mut a = CandidateStream::new(&cfg);
        let mut b = CandidateStream::new(&cfg);
        for _ in 0..50 {
            assert_eq!(a.next_candidate(), b.next_candidate());
        }
        let mut c = CandidateStream::new(&GeneratorConfig::new(5, 100).with_seed(10));
        let differs = (0..50).any(|_| a.next_candidate() != c.next_candidate());
        assert!(differs, "different seeds should give different streams");
    }

    #[test]
    fn candidate_paths_respect_depth_distribution_support() {
        let cfg = GeneratorConfig::new(4, 100).with_depth(DepthDist::uniform_012());
        let mut stream = CandidateStream::new(&cfg);
        let mut seen = [false; 3];
        for _ in 0..500 {
            let c = stream.next_candidate();
            assert!(c.depth() <= 2);
            seen[c.depth()] = true;
        }
        assert!(seen.iter().all(|s| *s), "all depths 0..=2 should occur");
    }

    #[test]
    fn root_candidates_are_positive() {
        let cfg = GeneratorConfig::new(4, 100).with_negative_rate(0.9);
        let mut stream = CandidateStream::new(&cfg);
        for _ in 0..300 {
            let c = stream.next_candidate();
            if c.path.is_root() {
                assert_eq!(c.sign, Sign::Pos);
            }
        }
    }

    #[test]
    fn populate_reaches_exact_annotation_count() {
        let cfg = GeneratorConfig::new(6, 200).with_seed(3);
        let (bdms, report) = generate_bdms(&cfg).unwrap();
        assert_eq!(report.accepted, 200);
        assert!(report.attempts() >= 200);
        // The store really holds the statements: explicit count equals n.
        let logical = bdms.to_belief_database().unwrap();
        assert_eq!(logical.len(), 200);
        assert!(logical.is_consistent());
    }

    #[test]
    fn logical_and_store_generation_agree() {
        let cfg = GeneratorConfig::new(5, 150).with_seed(17);
        let (bdms, r1) = generate_bdms(&cfg).unwrap();
        let (db, r2) = generate_logical(&cfg).unwrap();
        assert_eq!(r1, r2, "acceptance decisions must match");
        assert_eq!(
            bdms.to_belief_database().unwrap().statements(),
            db.statements()
        );
    }

    #[test]
    fn zipf_concentrates_annotations() {
        let cfg = GeneratorConfig::new(10, 300)
            .with_participation(Participation::paper_zipf())
            .with_seed(5);
        let (db, _) = generate_logical(&cfg).unwrap();
        // Count statements authored by user 1 (first path element) vs user 10.
        let mut by_user = vec![0usize; 11];
        for stmt in db.statements() {
            if let Some(u) = stmt.path.first() {
                by_user[u.0 as usize] += 1;
            }
        }
        assert!(
            by_user[1] > by_user[10] * 3,
            "Zipf head should dominate: {by_user:?}"
        );
    }

    #[test]
    fn saturation_is_detected() {
        // One key, one species, one user: after a handful of statements
        // everything is a duplicate.
        let cfg = GeneratorConfig {
            users: 1,
            annotations: 100,
            participation: Participation::Uniform,
            depth: DepthDist::new(&[1.0]),
            key_space: 1,
            species_pool: 1,
            negative_rate: 0.0,
            seed: 1,
        };
        let err = generate_bdms(&cfg).unwrap_err();
        assert!(matches!(err, BeliefError::Inconsistent(_)));
    }

    #[test]
    fn schema_matches_experiment_setup() {
        let s = experiment_schema();
        assert_eq!(s.relations().len(), 1);
        assert_eq!(s.relations()[0].arity(), 5);
        assert_eq!(s.relations()[0].key_column(), "sid");
    }
}
