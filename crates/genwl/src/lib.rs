//! # beliefdb-gen
//!
//! Synthetic belief-annotation workloads for the paper's evaluation
//! (Sect. 6.1): a parametric generator over the running example's
//! `Sightings` schema with configurable user participation (uniform /
//! generalized Zipf / the paper's 50-25-12.5 geometric example), nesting
//! depth distributions (`Pr[d = x]`), key-space clustering, and
//! negative-belief rates. Generation is deterministic per seed.
//!
//! ```
//! use beliefdb_gen::{GeneratorConfig, generate_bdms};
//!
//! let cfg = GeneratorConfig::new(10, 500); // m = 10 users, n = 500 annotations
//! let (bdms, report) = generate_bdms(&cfg).unwrap();
//! assert_eq!(report.accepted, 500);
//! let overhead = bdms.stats().relative_overhead(500);
//! assert!(overhead > 1.0); // |R*| / n, the measure of Table 1 / Fig. 6
//! ```

pub mod depth;
pub mod generator;
pub mod participation;
pub mod scenarios;

pub use depth::DepthDist;
pub use generator::{
    experiment_schema, fresh_bdms, fresh_bdms_with_policy, generate_bdms,
    generate_bdms_with_policy, generate_logical, populate, CandidateStream, GeneratorConfig,
    PopulateReport,
};
pub use participation::{Participation, UserSampler};
