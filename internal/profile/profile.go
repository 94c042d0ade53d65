// Package profile gives the command-line tools one way to profile
// themselves: -cpuprofile, -memprofile and -exectrace. A tool registers the
// flags, starts the profiles once the flags are parsed, and stops them
// before it exits, on every path: Exit replaces os.Exit, and Done is
// deferred for a normal return.
package profile

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Profiler holds the profiles one invocation asked for.
type Profiler struct {
	tool               string
	cpu, mem, exec     string
	cpuFile, traceFile *os.File
	running            bool
}

// Register adds -cpuprofile, -memprofile and -exectrace to fs. tool
// prefixes the messages Exit and Done print.
func Register(fs *flag.FlagSet, tool string) *Profiler {
	p := &Profiler{tool: tool}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile to `file` at exit")
	fs.StringVar(&p.exec, "exectrace", "", "write a runtime execution trace to `file`")
	return p
}

// Start begins the CPU profile and the execution trace, if asked for. Call
// it once, after the flags are parsed. On error nothing is left running
// and Stop, Exit and Done write nothing.
func (p *Profiler) Start() error {
	var err error
	if p.cpu != "" {
		if p.cpuFile, err = startFile(p.cpu, pprof.StartCPUProfile); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if p.exec != "" {
		if p.traceFile, err = startFile(p.exec, trace.Start); err != nil {
			if p.cpuFile != nil {
				pprof.StopCPUProfile()
				p.cpuFile.Close()
			}
			return fmt.Errorf("exectrace: %w", err)
		}
	}
	p.running = true
	return nil
}

// startFile creates path and starts writing a profile to it.
func startFile(path string, start func(io.Writer) error) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := start(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Stop ends the CPU profile and the execution trace, writes the heap
// profile and closes every file. Calls after the first do nothing.
func (p *Profiler) Stop() error {
	if !p.running {
		return nil
	}
	p.running = false
	var errs []error
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			errs = append(errs, fmt.Errorf("cpuprofile: %w", err))
		}
	}
	if p.traceFile != nil {
		trace.Stop()
		if err := p.traceFile.Close(); err != nil {
			errs = append(errs, fmt.Errorf("exectrace: %w", err))
		}
	}
	if p.mem != "" {
		if err := writeHeap(p.mem); err != nil {
			errs = append(errs, fmt.Errorf("memprofile: %w", err))
		}
	}
	return errors.Join(errs...)
}

func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // account every allocation freed so far
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Exit stops the profiles and exits with code; a profile that could not be
// written is reported, and turns a 0 code into 1.
func (p *Profiler) Exit(code int) {
	if err := p.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", p.tool, err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// Done stops the profiles when main returns; defer it right after Start.
// It exits 1 only if a profile could not be written.
func (p *Profiler) Done() {
	if err := p.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", p.tool, err)
		os.Exit(1)
	}
}
