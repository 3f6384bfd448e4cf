package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"probedis/internal/core"
	"probedis/internal/serve"
)

// server is one in-process serve.Server on its own loopback listener.
type server struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan struct{}
}

func startServer(d *core.Disassembler, cfg serve.Config) (*server, error) {
	srv, err := serve.New(d, cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  srv,
		http: &http.Server{Handler: srv.Routes(), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.http.Serve(ln)
	}()
	return s, nil
}

// close stops the listener and every connection and waits for the serve
// loop to return.
func (s *server) close() {
	s.http.Close()
	<-s.done
}

// newClient returns the load generator's HTTP client: keep-alive, at
// most maxConns connections, never a proxy.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
		Timeout: 120 * time.Second,
	}
}

// maxConns bounds the load generator's open connections.
const maxConns = 2

// chunkSize is the piece size of chunked uploads.
const chunkSize = 64 << 10

// chunked yields its bytes at most chunkSize at a time and hides its
// length, so the request goes out with chunked transfer encoding.
type chunked struct{ b []byte }

func (c *chunked) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), chunkSize)], c.b)
	c.b = c.b[n:]
	return n, nil
}

// post sends body to POST /disassemble (chunked when asked) and checks
// that the answer is a 200 whose body equals want.
func post(c *http.Client, url string, body []byte, chunk bool, want []byte) sample {
	var r io.Reader = bytes.NewReader(body)
	if chunk {
		r = &chunked{b: body}
	}
	s := sample{bytes: int64(len(body))}
	resp, err := c.Post(url+"/disassemble", "application/octet-stream", r)
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	s.tier = resp.Header.Get("X-Probedis-Cache")
	switch {
	case err != nil:
		s.err = err
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(got))
	case !bytes.Equal(got, want):
		s.err = errors.New("response differs from the reference")
	}
	return s
}

// referenceBodies answers every image once through a cache-less server
// driven in process, without a network and without spilling, giving the
// body every 200 of the workload must equal.
func referenceBodies(d *core.Disassembler, ims []*image) ([][]byte, error) {
	srv, err := serve.New(d, serve.Config{SpoolBytes: -1})
	if err != nil {
		return nil, err
	}
	h := srv.Routes()
	out := make([][]byte, len(ims))
	for i, im := range ims {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/disassemble", bytes.NewReader(im.elf)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("reference for image %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
		out[i] = rec.Body.Bytes()
	}
	return out, nil
}
