//! Monte-Carlo evaluation harness for the HARP reproduction.
//!
//! This crate reproduces every table and figure in the paper's evaluation:
//!
//! | experiment | module | what it shows |
//! |---|---|---|
//! | Fig. 2 | [`experiments::fig2`] | wasted storage vs. RBER per repair granularity |
//! | Table 2 | [`experiments::table2`] | combinatorial explosion of at-risk bits |
//! | Fig. 4 | [`experiments::fig4`] | per-bit post-correction error probability distributions |
//! | Fig. 6 | [`experiments::fig6`] | direct-error coverage vs. profiling rounds |
//! | Fig. 7 | [`experiments::fig7`] | bootstrapping rounds distribution |
//! | Fig. 8 | [`experiments::fig8`] | missed indirect errors vs. profiling rounds |
//! | Fig. 9 | [`experiments::fig9`] | required secondary-ECC correction capability |
//! | Fig. 10 | [`experiments::fig10`] | end-to-end BER case study (data retention) |
//! | headline | [`experiments::headline`] | the paper's headline speedup claims |
//!
//! Every experiment follows the same pattern: a `run(&EvaluationConfig) ->
//! XyzResult` function that performs the Monte-Carlo simulation (in parallel
//! across worker threads), and a `render()` method on the result that
//! produces the plain-text table printed by the CLI / benches. Results are
//! `serde`-serializable so they can be archived as JSON.
//!
//! The default [`config::EvaluationConfig::quick`] configuration runs in
//! seconds on a laptop; [`config::EvaluationConfig::paper_scale`] approaches
//! the paper's sample counts (the paper burned ~14 CPU-years on its full
//! sweep).

pub mod checkpoint;
pub mod config;
pub mod experiments;
pub mod minijson;
pub mod report;
pub mod runner;
pub mod sample;
pub mod stats;
pub mod traffic;

pub use config::EvaluationConfig;
pub use sample::WordSample;
