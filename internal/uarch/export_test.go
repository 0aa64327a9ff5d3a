package uarch

// The reference paths the pipeline is specified against are test oracles:
// selectors on the Core that only this file can reach, so no configuration
// of a shipped binary runs them.

// UseScanIssue makes the core issue by the full-ROB scan — the walk NewCore
// itself picks for windows the scoreboard's two mask words cannot cover —
// so the scoreboard walk can be compared against it at the same geometry.
// Call it before the first ResetForInput.
func (c *Core) UseScanIssue() { c.sbOn = false }

// ScoreboardOn reports whether the core issues by the scoreboard walk.
func (c *Core) ScoreboardOn() bool { return c.sbOn }

// UseCycleByCycle makes Run tick through every cycle instead of skipping
// quiescent spans (quiescent.go).
func (c *Core) UseCycleByCycle() { c.noSkip = true }
