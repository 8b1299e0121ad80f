// Package ignorefix exercises //lint:ignore suppression semantics: valid
// suppressions on the preceding or same line, and the three directive
// errors (unknown rule, missing reason, stale directive), which are
// reported under the reserved "lint" rule.
package ignorefix

import "context"

// Suppressed is silenced by a directive on the preceding line.
func Suppressed() context.Context {
	//lint:ignore ctxroot fixture demonstrates a valid suppression
	return context.Background()
}

// SameLine is silenced by a directive sharing the offending line.
func SameLine() context.Context {
	return context.Background() //lint:ignore ctxroot same-line suppression
}

// Unsuppressed keeps its finding.
func Unsuppressed() context.Context {
	return context.Background() // want `roots a new context`
}

// WrongRule names a rule that does not exist, so nothing is suppressed
// and the directive itself is a finding.
func WrongRule() context.Context {
	/*lint:ignore nosuchrule the rule name is wrong*/ // want `unknown rule "nosuchrule"`
	return context.Background()                       // want `roots a new context`
}

// RetiredRule names a rule mblint no longer has (the zero-allocation
// proof became AllocsPerRun tests): the directive is an unknown-rule
// finding, not a silent no-op.
func RetiredRule() []byte {
	/*lint:ignore hotalloc a retired rule*/ // want `unknown rule "hotalloc"`
	return make([]byte, 8)
}

// MissingReason omits the mandatory justification; a malformed directive
// suppresses nothing, so the violation below it still reports.
func MissingReason() context.Context {
	/*lint:ignore ctxroot*/     // want `is missing a reason`
	return context.Background() // want `roots a new context`
}

// Stale suppresses nothing: the violation it once excused is gone.
func Stale(ctx context.Context) context.Context {
	/*lint:ignore ctxroot nothing to suppress here anymore*/ // want `stale //lint:ignore`
	return ctx
}
