// Fixture for the resclose analyzer: leaked files/tickers/bodies/
// listeners (positive), every sanctioned release and hand-off shape
// (negative), and the escape hatch.
package a

import (
	"io"
	"net"
	"net/http"
	"os"
	"time"
)

func leakedFile(p string) error {
	f, err := os.Open(p) // want `f is never closed in this function`
	if err != nil {
		return err
	}
	_ = f.Name()
	return nil
}

func deferredClose(p string) error {
	f, err := os.Open(p)
	if err != nil {
		return err
	}
	defer f.Close()
	_ = f.Name()
	return nil
}

// defer f.Close() evaluates f when it is registered: here it closes the
// nil file, so the return that skips the inline Close leaves the opened
// one open.
func deferBeforeOpen(p string, keep bool) error {
	var f *os.File
	defer f.Close()
	f, err := os.Open(p) // want `f is not closed on the return path at line \d+`
	if err != nil {
		return err
	}
	if keep {
		return nil
	}
	return f.Close()
}

// A deferred closure reads f when it runs, so it closes the opened file.
func deferredClosureBeforeOpen(p string) error {
	var f *os.File
	defer func() {
		f.Close()
	}()
	f, err := os.Open(p)
	if err != nil {
		return err
	}
	_ = f.Name()
	return nil
}

func inlineClose(p string) error {
	f, err := os.Open(p)
	if err != nil {
		return err
	}
	_ = f.Name()
	return f.Close()
}

func uncoveredReturnPath(p string, bail bool) error {
	f, err := os.Open(p) // want `f is not closed on the return path at line \d+`
	if err != nil {
		return err
	}
	if bail {
		return nil
	}
	return f.Close()
}

func handedOffByReturn(p string) (*os.File, error) {
	f, err := os.Open(p)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func handedOffToCallee(p string) error {
	f, err := os.Open(p)
	if err != nil {
		return err
	}
	return consume(f)
}

func consume(r io.ReadCloser) error {
	defer r.Close()
	return nil
}

func handedOffToStruct(p string) (*holder, error) {
	f, err := os.Open(p)
	if err != nil {
		return nil, err
	}
	return &holder{f: f}, nil
}

type holder struct{ f *os.File }

func capturedByClosure(p string) (func() error, error) {
	f, err := os.Open(p)
	if err != nil {
		return nil, err
	}
	return func() error { return f.Close() }, nil
}

func deferredClosureClose(p string) error {
	f, err := os.Open(p)
	if err != nil {
		return err
	}
	defer func() {
		f.Close()
	}()
	_ = f.Name()
	return nil
}

func leakedTicker(d time.Duration) {
	t := time.NewTicker(d) // want `t is never closed in this function`
	<-t.C
}

func stoppedTicker(d time.Duration) {
	t := time.NewTicker(d)
	defer t.Stop()
	<-t.C
}

func allowedProcessLifetimeTicker(d time.Duration) {
	t := time.NewTicker(d) //wiclean:allow-resclose process-lifetime heartbeat, dies with the process
	<-t.C
}

func bareDirectiveStillFires(d time.Duration) {
	t := time.NewTicker(d) //wiclean:allow-resclose // want `t is never closed` `needs a reason`
	<-t.C
}

func leakedBody(c *http.Client, url string) (int, error) {
	resp, err := c.Get(url) // want `resp is never closed in this function`
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

func closedBody(c *http.Client, url string) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, nil
}

func leakedListener(addr string) error {
	ln, err := net.Listen("tcp", addr) // want `ln is never closed in this function`
	if err != nil {
		return err
	}
	_ = ln.Addr()
	return nil
}

func closedListener(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	_ = ln.Addr()
	return nil
}

func listenerHandedToServer(addr string, srv *http.Server) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return srv.Serve(ln) // Serve takes ownership and closes on shutdown
}
