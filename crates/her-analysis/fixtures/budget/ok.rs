// Fixture: serving-path matcher calls that correctly thread a budget or
// deadline — zero `her::budget_not_threaded` findings expected.

impl Handler {
    fn run_vpair(&self, tuple: TupleRef, max_calls: u64, deadline: Option<Instant>) -> Reply {
        let run = self
            .her
            .try_vpair(tuple, self.matcher_opts(max_calls, deadline));
        reply(run)
    }

    fn run_apair(&self, max_calls: u64, deadline: Option<Instant>) -> Reply {
        let ((matches, exhausted, stats), ticket) =
            self.pool.run(self.budget(max_calls, deadline), CancelToken::new(), self.ctx, |m| {
                self.her.apair_with(m)
            });
        reply4(matches, exhausted, stats, ticket)
    }

    fn run_explicit(&self) -> Reply {
        let opts = MatcherOptions {
            budget: Budget::max_calls(10_000),
            ..Default::default()
        };
        let (matches, exhausted, _) = self.her.try_apair_stats(opts);
        reply2(matches, exhausted)
    }
}
