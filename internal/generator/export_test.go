package generator

import "github.com/sith-lab/amulet-go/internal/isa"

// Test-only conveniences no shipped code calls.

// MutateProgram derives a mutant of a toy-frontend program (convenience
// wrapper over MutateSource).
func (g *Generator) MutateProgram(p *isa.Program) *isa.Program {
	return g.fe.Lower(g.MutateSource(p))
}
