//! BEEP: Bit-Exact Error Profiling (paper §7.1).
//!
//! BEEP uses a *known* on-die ECC function (recovered with BEER) to find
//! the number and bit-exact locations of pre-correction error-prone cells
//! — including cells in the chip-invisible parity bits. The three phases
//! of Figure 7:
//!
//! 1. **Craft test patterns** ([`craft_pattern`]): a SAT query produces a dataword
//!    whose codeword charges the target cell, discharges its neighbours
//!    (worst-case coupling), and guarantees an *observable miscorrection*
//!    if the target fails together with already-known error cells.
//! 2. **Run experiments** ([`WordTarget`]): write the pattern, lengthen
//!    the refresh window, read back.
//! 3. **Calculate pre-correction errors** ([`decode_read`]): every observed
//!    miscorrection reveals its syndrome, from which the full erroneous
//!    codeword — and therefore the exact error set — follows (Equation 4).
//!
//! The paper leaves BEEP's bootstrap unspecified (crafting needs known
//! errors, but initially none are known): this implementation seeds the
//! loop with a handful of random-data patterns whose definite
//! miscorrections are decoded exactly (documented in DESIGN.md §4).
//!
//! # Examples
//!
//! ```
//! use beer_beep::{profile_word, BeepConfig, SimWordTarget};
//! use beer_ecc::hamming;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let code = hamming::full_length(5); // (31, 26)
//! let weak = vec![3usize, 17, 29];    // secret error-prone cells
//! let mut target = SimWordTarget::new(code.clone(), weak.clone(), 1.0, 99);
//! let result = profile_word(&code, &mut target, &BeepConfig::default());
//! assert_eq!(result.discovered_sorted(), weak);
//! ```

mod craft;
mod decode;
mod eval;
mod profiler;
mod recovered;
mod target;

pub use craft::{craft_pattern, CraftRequest};
pub use decode::{decode_read, DecodedTrial};
pub use eval::{evaluate, EvalConfig, EvalOutcome};
pub use profiler::{profile_word, BeepConfig, BeepResult};
pub use recovered::{code_from_outcome, profile_recovered_word, RecoveredCodeError};
pub use target::{DramWordTarget, SimWordTarget, WordTarget};
