//! Counter tables: every run counter is defined once, as one row of a
//! [`counters!`](crate::counters!) table, and reaches every output from
//! that row.
//!
//! A row is a doc comment, a field, a type and an output key:
//!
//! ```
//! use std::time::Duration;
//!
//! fusion::counters! {
//!     /// A two-stage pipeline's totals.
//!     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
//!     pub struct Totals {
//!         /// Wall time of the first stage.
//!         pub parse_wall: Duration => "parse_ms",
//!         /// Items the second stage decided.
//!         pub decided: u64 => "decided",
//!         /// Kept for an old reader; never printed.
//!         pub legacy: u64 => _,
//!     }
//! }
//!
//! let mut a = Totals { decided: 2, ..Totals::default() };
//! a.add(&Totals { decided: 3, legacy: 1, ..Totals::default() });
//! assert_eq!(a.since(&Totals { decided: 1, ..Totals::default() }).decided, 4);
//! let mut keys = Vec::new();
//! fusion::counters::Table::visit(&a, &mut |key, _| keys.push(key));
//! assert_eq!(keys, ["parse_ms", "decided"]);
//! ```
//!
//! The type is `u64`, `Duration` (printed in milliseconds, so its key ends
//! in `_ms`) or another table. The key is a string literal; `_` leaves the
//! row unprinted, and `..` prints a nested table's rows in its place.
//!
//! From the rows the macro generates the struct, an inherent `add` (sums
//! another table in) and `since` (the delta from an earlier snapshot of
//! the same monotonic totals), and a [`Table`] impl whose
//! [`Table::visit`] yields the printed rows as `(key, value)` pairs in row
//! order. The CLI's `--json`, `--stats` and serve `stats` print by
//! visiting, so adding or deleting a counter is one row plus the lines
//! that increment or read it.

use std::fmt;
use std::time::Duration;

/// One printed counter value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// An event or byte count.
    Count(u64),
    /// A wall time in milliseconds.
    Ms(f64),
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Count(n)
    }
}

impl From<Duration> for Value {
    fn from(d: Duration) -> Value {
        Value::Ms(d.as_secs_f64() * 1e3)
    }
}

/// Plain decimal: the form `--json` prints.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Count(n) => write!(f, "{n}"),
            Value::Ms(ms) => write!(f, "{ms}"),
        }
    }
}

/// A row type: summed by `add`, differenced by `since`.
pub trait Counter: Copy {
    /// Adds `other` into `self`.
    fn add(&mut self, other: &Self);
    /// `self` minus an `earlier` snapshot of the same monotonic total.
    fn since(&self, earlier: &Self) -> Self;
}

impl Counter for u64 {
    fn add(&mut self, other: &Self) {
        *self += other;
    }
    fn since(&self, earlier: &Self) -> Self {
        self - earlier
    }
}

impl Counter for Duration {
    fn add(&mut self, other: &Self) {
        *self += *other;
    }
    fn since(&self, earlier: &Self) -> Self {
        self.saturating_sub(*earlier)
    }
}

/// A counter table declared with [`counters!`](crate::counters!).
pub trait Table {
    /// Calls `f(key, value)` for every printed row in row order, nested
    /// tables flattened in place.
    fn visit(&self, f: &mut dyn FnMut(&'static str, Value));
}

/// Declares a counter table; see the [module docs](mod@crate::counters).
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$row_meta:meta])*
                $row_vis:vis $field:ident: $ty:ty => $key:tt,
            )*
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$row_meta])* $row_vis $field: $ty, )*
        }

        impl $name {
            /// Adds every row of `other` into this table.
            #[allow(dead_code)]
            pub fn add(&mut self, other: &$name) {
                $( $crate::counters::Counter::add(&mut self.$field, &other.$field); )*
            }

            /// Row-wise deltas relative to an `earlier` snapshot of the
            /// same totals.
            #[allow(dead_code)]
            pub fn since(&self, earlier: &$name) -> $name {
                $name {
                    $( $field: $crate::counters::Counter::since(&self.$field, &earlier.$field), )*
                }
            }
        }

        impl $crate::counters::Counter for $name {
            fn add(&mut self, other: &Self) {
                $name::add(self, other)
            }
            fn since(&self, earlier: &Self) -> Self {
                $name::since(self, earlier)
            }
        }

        impl $crate::counters::Table for $name {
            fn visit(&self, f: &mut dyn FnMut(&'static str, $crate::counters::Value)) {
                $( $crate::__counter_row!(self.$field, f, $key); )*
            }
        }
    };
}

/// One row of [`counters!`](crate::counters!)'s `visit`.
#[doc(hidden)]
#[macro_export]
macro_rules! __counter_row {
    ($value:expr, $f:ident, _) => {};
    ($value:expr, $f:ident, ..) => {
        $crate::counters::Table::visit(&$value, $f)
    };
    ($value:expr, $f:ident, $key:literal) => {
        $f($key, $crate::counters::Value::from($value))
    };
}
