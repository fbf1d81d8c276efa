package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"ambit"
	"ambit/internal/controller"
	"ambit/internal/service"
	"ambit/internal/service/loadgen"
)

// endpoint is one entry point a request stream can be replayed at: ambitd
// over loopback, the service handler in process, or the ambit library.
type endpoint interface {
	createNS(ns string) error
	createVec(ns, vec string, bits int64) error
	write(ns, vec string, words []uint64) error
	op(ns, op, dst, a, b string) error
	popcount(ns, vec string) (int64, error)
	read(ns, vec string) ([]uint64, error)
}

// clientEndpoint speaks the /v1 API through a loadgen.Client.
type clientEndpoint struct{ c *loadgen.Client }

func (e clientEndpoint) createNS(ns string) error { return e.c.CreateNamespace(ns, 0) }
func (e clientEndpoint) createVec(ns, vec string, bits int64) error {
	return e.c.CreateVector(ns, vec, bits)
}
func (e clientEndpoint) write(ns, vec string, words []uint64) error {
	return e.c.WriteData(ns, vec, words, false)
}
func (e clientEndpoint) op(ns, op, dst, a, b string) error { return e.c.Op(ns, op, dst, a, b) }
func (e clientEndpoint) popcount(ns, vec string) (int64, error) {
	return e.c.Popcount(ns, vec)
}
func (e clientEndpoint) read(ns, vec string) ([]uint64, error) { return e.c.ReadData(ns, vec, false) }

// newAmbitdSystem builds a System the way cmd/ambitd builds its own: a
// telemetry server on a loopback port and nobody subscribed to /trace.
func newAmbitdSystem() (*ambit.System, error) {
	return ambit.New(ambit.WithTelemetryAddr("127.0.0.1:0"))
}

// inproc serves the /v1 API from service.Server.ServeHTTP in this process,
// with no network in between, and times each ServeHTTP call.
type inproc struct {
	sys        *ambit.System
	srv        *service.Server
	start, end time.Time // bounds of the last ServeHTTP call
}

func newInproc() (*inproc, error) {
	sys, err := newAmbitdSystem()
	if err != nil {
		return nil, err
	}
	return &inproc{sys: sys, srv: service.New(sys, service.Config{})}, nil
}

// RoundTrip hands the request to ServeHTTP and returns the recorded
// response.
func (p *inproc) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	p.start = time.Now()
	p.srv.ServeHTTP(rec, r)
	p.end = time.Now()
	return rec.Result(), nil
}

func (p *inproc) endpoint() clientEndpoint {
	return clientEndpoint{&loadgen.Client{Base: "http://inproc", HTTP: &http.Client{Transport: p}}}
}

func (p *inproc) close() {
	_ = p.srv.Close()
	_ = p.sys.Close()
}

// libEndpoint calls the ambit library directly: the same operations the
// service handlers perform, without HTTP, admission or JSON.
type libEndpoint struct {
	sys  *ambit.System
	vecs map[string]*ambit.Bitvector // by "ns/vec"
}

func newLibEndpoint(sys *ambit.System) *libEndpoint {
	return &libEndpoint{sys: sys, vecs: map[string]*ambit.Bitvector{}}
}

func (e *libEndpoint) vec(ns, name string) (*ambit.Bitvector, error) {
	v := e.vecs[ns+"/"+name]
	if v == nil {
		return nil, fmt.Errorf("lib: no vector %s/%s", ns, name)
	}
	return v, nil
}

func (e *libEndpoint) createNS(string) error { return nil }

func (e *libEndpoint) createVec(ns, vec string, bits int64) error {
	v, err := e.sys.Alloc(bits)
	if err != nil {
		return err
	}
	e.vecs[ns+"/"+vec] = v
	return nil
}

func (e *libEndpoint) write(ns, vec string, words []uint64) error {
	v, err := e.vec(ns, vec)
	if err != nil {
		return err
	}
	_, err = v.SetWords(words)
	return err
}

func (e *libEndpoint) op(ns, op, dst, a, b string) error {
	d, err := e.vec(ns, dst)
	if err != nil {
		return err
	}
	av, err := e.vec(ns, a)
	if err != nil {
		return err
	}
	if op == "copy" {
		return e.sys.Copy(d, av)
	}
	code, err := controller.ParseOp(op)
	if err != nil {
		return err
	}
	var bv *ambit.Bitvector
	if !code.Unary() {
		if bv, err = e.vec(ns, b); err != nil {
			return err
		}
	}
	return e.sys.Apply(code, d, av, bv)
}

func (e *libEndpoint) popcount(ns, vec string) (int64, error) {
	v, err := e.vec(ns, vec)
	if err != nil {
		return 0, err
	}
	return e.sys.Popcount(v)
}

func (e *libEndpoint) read(ns, vec string) ([]uint64, error) {
	v, err := e.vec(ns, vec)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, v.WordCount())
	_, err = v.ReadInto(out)
	return out, err
}
