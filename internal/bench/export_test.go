package bench

import (
	"repro/internal/kernel"
	"repro/internal/osprofile"
)

// The kernel benchmarks' machines, built and not yet run, for the
// external test that holds each plain run to its observed one: a nil
// scope builds the plain run's machine, new(Scope) the observed one.

func GetpidMachine(s *Scope, p *osprofile.Profile) *kernel.Machine { return s.getpid(p) }

func CtxMachine(s *Scope, p *osprofile.Profile, nproc int, order CtxOrder) *kernel.Machine {
	m, _ := s.ctx(p, nproc, order)
	return m
}

func BwPipeMachine(s *Scope, p *osprofile.Profile) *kernel.Machine { return s.bwPipe(p) }

func IPCPipeMachine(s *Scope, p *osprofile.Profile, msg, total int) *kernel.Machine {
	return s.ipcPipe(p, msg, total)
}
