// Fixture: span-aware waivers. A `// #[allow(her::rule)]` sitting on
// (or directly above) an fn/impl/mod header waives every finding
// inside that item's span. A comment separated from the header by a
// blank line does NOT count.

use her_core::{Matcher, MatcherOptions};

pub struct Handler {
    m: Matcher,
}

impl Handler {
    // #[allow(her::budget_not_threaded)] — warmup path, bounded input
    pub fn waived_by_fn_header(&self) {
        let _ = self.m.try_vpair((1, 2), MatcherOptions::default());
    }

    pub fn unwaived(&self) {
        let _ = self.m.try_apair_stats(MatcherOptions::default());
    }
}

// #[allow(her::budget_not_threaded)] — whole warmup module is prelaunch
mod warm {
    use her_core::{Matcher, MatcherOptions};

    pub fn nested_in_waived_mod(m: &Matcher) {
        let _ = m.try_vpair((3, 4), MatcherOptions::default());
    }
}

// #[allow(her::budget_not_threaded)] — NOT adjacent: blank line below

pub fn not_covered_by_distant_comment(m: &Matcher) {
    let _ = m.try_apair_stats(MatcherOptions::default());
}
