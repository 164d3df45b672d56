//! One module per reproduced table / figure, plus the shared coverage sweep
//! they are derived from.
//!
//! Every experiment exposes a `run(...) -> …Result` entry point and a
//! `render()` method on its result that returns the plain-text table the CLI
//! and benches print.

pub mod ablation;
pub mod ext_bch;
pub mod ext_beer;
pub mod ext_codes;
pub mod ext_module;
pub mod ext_repair;
pub mod ext_traffic;
pub mod ext_vrt;
pub mod fig10;
pub mod fig2;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod headline;
pub mod sweep;
pub mod table2;
