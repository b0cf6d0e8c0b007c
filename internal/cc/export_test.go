package cc

// MaxNest and NestPeaks show the external tests the nesting budget and
// how much of it a parsed program used; MaxTokens is the lexer's budget.
const (
	MaxNest   = maxNest
	MaxTokens = maxTokens
)

func (p *Program) NestPeaks() (expr, stmt int) { return p.peakExpr, p.peakStmt }
