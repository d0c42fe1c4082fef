// Package errdrop is a fixture for the errdrop analyzer: discarded
// error results on I/O, Close, Flush and durability paths, including
// module wrappers whose obligation is only visible through facts.
package errdrop

import (
	"bufio"
	"errors"
	"net"
	"os"
	"sync"
)

// ---- direct (intrinsic) positives ----

func bareFileClose(f *os.File) {
	f.Close() // want `error from \(os\.File\)\.Close silently dropped`
}

func blankFileSync(f *os.File) {
	_ = f.Sync() // want `error from \(os\.File\)\.Sync explicitly discarded on a durability path`
}

func blankWriteCount(f *os.File, b []byte) {
	n, _ := f.Write(b) // want `error from \(os\.File\)\.Write explicitly discarded on a durability path`
	_ = n
}

func deferredFileClose(f *os.File) {
	defer f.Close() // want `error from deferred \(os\.File\)\.Close dropped on a durability path`
}

// deferredClosureClose: a bare drop in a deferred func literal is as
// silent as anywhere else.
func deferredClosureClose(f *os.File, dir string) (err error) {
	defer func() {
		f.Close() // want `error from \(os\.File\)\.Close silently dropped`
		err = errors.Join(err, os.RemoveAll(dir))
	}()
	return nil
}

// onceClose: a func literal handed to a call statement is read like a
// deferred one.
func onceClose(once *sync.Once, f *os.File) {
	once.Do(func() {
		f.Close() // want `error from \(os\.File\)\.Close silently dropped`
	})
}

func bareFlush(bw *bufio.Writer) {
	bw.Flush() // want `error from \(bufio\.Writer\)\.Flush silently dropped`
}

func bareConnClose(nc net.Conn) {
	nc.Close() // want `error from \(net\.Conn\)\.Close silently dropped`
}

// ---- cross-function positives (the wrapper carries the fact) ----

// flushAll is a durability wrapper: it returns an error sourced from
// bufio.Writer.Flush, so discarding its result is discarding the flush.
func flushAll(bw *bufio.Writer) error {
	return bw.Flush()
}

func bareWrapper(bw *bufio.Writer) {
	flushAll(bw) // want `error from errdrop\.flushAll .* silently dropped`
}

func blankWrapper(bw *bufio.Writer) {
	_ = flushAll(bw) // want `error from errdrop\.flushAll .* explicitly discarded on a durability path`
}

// persist is two hops from the os.File.Sync at the bottom.
func persist(f *os.File) error {
	return syncIt(f)
}

func syncIt(f *os.File) error {
	return f.Sync()
}

func deepBare(f *os.File) {
	persist(f) // want `error from errdrop\.persist .* silently dropped`
}

// ---- negatives ----

// checked returns the error: the obligation moves to the caller.
func checked(f *os.File) error {
	return f.Close()
}

// handled inspects the error.
func handled(f *os.File) {
	if err := f.Sync(); err != nil {
		_ = err
	}
}

// blankConnClose: explicit best-effort teardown of a connection is the
// repo's documented idiom and stays legal ("net" kind).
func blankConnClose(nc net.Conn) {
	_ = nc.Close()
}

// deferredConnClose: deferred teardown of a connection is likewise fine.
func deferredConnClose(nc net.Conn) {
	defer nc.Close()
}

// deferredClosureJoined: the deferred func literal joins the close error
// into the function's result.
func deferredClosureJoined(f *os.File, dir string) (err error) {
	defer func() {
		err = errors.Join(err, f.Close(), os.RemoveAll(dir))
	}()
	return nil
}

// deferredClosureCleanup: an explicit discard in a deferred func literal,
// on a path that already returns an error, is the cleanup's choice.
func deferredClosureCleanup(f *os.File) (err error) {
	defer func() {
		if err != nil {
			_ = f.Close()
		}
	}()
	return os.ErrInvalid
}

// onceCloseJoined: the literal handed to once.Do joins the close error
// into the function's result.
func onceCloseJoined(once *sync.Once, f *os.File) (err error) {
	once.Do(func() {
		err = errors.Join(err, f.Close())
	})
	return err
}

// pureWrapper returns an error with no I/O under it: no obligation.
func pureWrapper(ok bool) error {
	if !ok {
		return os.ErrInvalid
	}
	return nil
}

func dropsPure(ok bool) {
	_ = pureWrapper(ok)
}

// suppressed is the audited escape hatch.
func suppressed(f *os.File) {
	//lint:ignore errdrop fixture demonstrates the audited escape hatch
	f.Close()
}
