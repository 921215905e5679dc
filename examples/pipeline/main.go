// Pipeline: the M³x shell example the paper revisits in §2.2 —
//
//	decode in.png | fft | mul | ifft > out.raw
//
// — an FFT-convolution edge detector built from autonomously communicating
// stages. Each stage runs as its own activity (standing in for the paper's
// hardware accelerators), connected by message gates for control and shared
// memory capabilities for the data, with the final stage writing the result
// into the file system. The FFT/mul/ifft stages compute a real FFT
// convolution; the output is checked against a direct convolution.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"math/cmplx"
	"math/rand"

	"m3v"
	"m3v/internal/m3fs"
)

const (
	signalLen = 4096 // input samples (power of two for the radix-2 FFT)
)

// link is one pipeline edge: a notification gate plus a shared data buffer.
type link struct {
	sgateSel m3v.Sel // delegated to the upstream stage
	memSel   m3v.Sel // delegated to both stages (upstream writes, downstream reads)
	ready    bool
}

func main() {
	sys := m3v.NewSystem(m3v.FPGA())
	defer sys.Shutdown()
	procs := sys.Cfg.ProcessingTiles()

	links := make([]*link, 3) // decode->fft, fft->mul, mul->ifft
	for i := range links {
		links[i] = &link{}
	}
	var checked bool

	root := sys.SpawnRoot(procs[0], "shell", nil, func(a *m3v.Activity) {
		tiles := m3v.TileSels(a)
		// The file system for `> out.raw`.
		if _, err := m3fs.Spawn(a, tiles[procs[1]], procs[1], 16<<20); err != nil {
			log.Fatalf("fs: %v", err)
		}
		// Stage tiles: the paper runs fft/mul/ifft on accelerators; here
		// each is an activity on its own tile.
		stages := []struct {
			name string
			tile m3v.TileID
			prog m3v.Program
		}{
			{"fft", procs[2], fftStage},
			{"mul", procs[3], mulStage},
			{"ifft", procs[4], ifftStage},
		}
		var refs []m3v.ChildRef
		for i, st := range stages {
			env := map[string]interface{}{"in": links[i]}
			if i+1 < len(links) {
				env["out"] = links[i+1]
			}
			env["checked"] = &checked
			ref, err := a.Spawn(tiles[st.tile], st.tile, st.name, env, st.prog)
			if err != nil {
				log.Fatalf("spawn %s: %v", st.name, err)
			}
			refs = append(refs, ref)
		}
		// The decode stage runs inline in the shell's activity.
		decodeStage(a, links[0], refs[0].ID)
		for _, ref := range refs {
			if _, err := a.SysWait(ref.ActSel); err != nil {
				log.Fatalf("wait: %v", err)
			}
		}
	})
	sys.Run(60 * m3v.Second)
	fmt.Printf("pipeline complete: root=%v verified=%v\n", root.Done(), checked)
}

// setupLink creates the downstream side of a link: a receive gate and a
// data buffer, both delegated upstream.
func setupLink(a *m3v.Activity, l *link, upstream uint32) (rg m3v.EpID, mem m3v.EpID) {
	rgSel, err := a.SysCreateRGate(2, 64)
	if err != nil {
		log.Fatal(err)
	}
	rgEp, err := a.SysActivate(rgSel)
	if err != nil {
		log.Fatal(err)
	}
	sgSel, err := a.SysCreateSGate(rgSel, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	memSel, err := a.SysCreateMGate(signalLen*16, m3v.PermRW) // re + im planes
	if err != nil {
		log.Fatal(err)
	}
	memEp, err := a.SysActivate(memSel)
	if err != nil {
		log.Fatal(err)
	}
	if l.sgateSel, err = a.SysDelegate(upstream, sgSel); err != nil {
		log.Fatal(err)
	}
	if l.memSel, err = a.SysDelegate(upstream, memSel); err != nil {
		log.Fatal(err)
	}
	l.ready = true
	return rgEp, memEp
}

// openLink is the upstream side: wait for the downstream setup, activate
// the delegated gates.
func openLink(a *m3v.Activity, l *link) (sg m3v.EpID, mem m3v.EpID) {
	for !l.ready {
		a.Compute(1000)
		a.Yield()
	}
	sgEp, err := a.SysActivate(l.sgateSel)
	if err != nil {
		log.Fatal(err)
	}
	memEp, err := a.SysActivate(l.memSel)
	if err != nil {
		log.Fatal(err)
	}
	return sgEp, memEp
}

// pushComplex writes a complex signal (re plane, then im plane) into a
// memory gate and notifies the downstream stage, waiting for its ack reply.
func pushComplex(a *m3v.Activity, sg, mem m3v.EpID, rg m3v.EpID, data []complex128) {
	buf := make([]byte, len(data)*16)
	for i, v := range data {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(buf[(len(data)+i)*8:], math.Float64bits(imag(v)))
	}
	for off := 0; off < len(buf); off += 4096 {
		end := off + 4096
		if end > len(buf) {
			end = len(buf)
		}
		if err := a.WriteMem(mem, uint64(off), buf[off:end], 0); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := a.Call(sg, rg, []byte("chunk")); err != nil {
		log.Fatal(err)
	}
}

// pullComplex waits for a notification, reads the signal, and replies.
func pullComplex(a *m3v.Activity, rg, mem m3v.EpID) []complex128 {
	slot, msg := a.Recv(rg)
	buf := make([]byte, signalLen*16)
	if err := a.ReadMem(mem, 0, buf, 0); err != nil {
		log.Fatal(err)
	}
	out := make([]complex128, signalLen)
	for i := range out {
		re := math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(buf[(signalLen+i)*8:]))
		out[i] = complex(re, im)
	}
	if err := a.ReplyMsg(rg, slot, msg, []byte("ok"), 0); err != nil {
		log.Fatal(err)
	}
	return out
}

// decodeStage produces the input signal (the "decoded image" row).
func decodeStage(a *m3v.Activity, out *link, fftAct uint32) {
	sg, mem := openLink(a, out)
	rgSel, _ := a.SysCreateRGate(1, 64)
	rg, _ := a.SysActivate(rgSel)
	rng := rand.New(rand.NewSource(7))
	signal := make([]float64, signalLen)
	for i := range signal {
		signal[i] = math.Sin(float64(i)/40) + 0.2*rng.Float64()
	}
	a.Compute(int64(signalLen) * 20) // decode work
	pushComplex(a, sg, mem, rg, toComplex(signal))
	_ = fftAct
}

// fftStage transforms the signal to the frequency domain. The real FFT is
// encoded as interleaved re/im into the next link (half the spectrum plus
// packing would complicate the example; the full complex spectrum is sent
// as two consecutive float runs).
func fftStage(a *m3v.Activity) {
	in := a.Env["in"].(*link)
	out := a.Env["out"].(*link)
	rg, mem := setupLink(a, in, 1) // upstream = the shell (activity 1)
	x := pullComplex(a, rg, mem)
	spec := fft(x, false)
	a.Compute(int64(signalLen) * 60) // n log n butterfly work
	sg, outMem := openLink(a, out)
	rgSel, _ := a.SysCreateRGate(1, 64)
	replyRg, _ := a.SysActivate(rgSel)
	pushComplex(a, sg, outMem, replyRg, spec)
}

// mulStage multiplies by the edge-detection kernel's spectrum.
func mulStage(a *m3v.Activity) {
	in := a.Env["in"].(*link)
	out := a.Env["out"].(*link)
	// Upstream is the fft stage: its global id is ours minus one (spawn
	// order); passed implicitly via delegation, so just serve the link.
	rg, mem := setupLinkFor(a, in)
	spec := pullComplex(a, rg, mem)
	kernel := fft(toComplex(edgeKernel()), false)
	for i := range spec {
		spec[i] *= kernel[i]
	}
	a.Compute(int64(signalLen) * 12)
	sg, outMem := openLink(a, out)
	rgSel, _ := a.SysCreateRGate(1, 64)
	replyRg, _ := a.SysActivate(rgSel)
	pushComplex(a, sg, outMem, replyRg, spec)
}

// ifftStage transforms back and writes `out.raw` to the file system, then
// verifies against a direct convolution.
func ifftStage(a *m3v.Activity) {
	in := a.Env["in"].(*link)
	checked := a.Env["checked"].(*bool)
	rg, mem := setupLinkFor(a, in)
	spec := pullComplex(a, rg, mem)
	res := fft(spec, true)
	a.Compute(int64(signalLen) * 60)
	outSamples := make([]float64, signalLen)
	for i, c := range res {
		outSamples[i] = real(c)
	}
	// > out.raw
	c, err := m3fs.NewClient(a)
	if err != nil {
		log.Fatal(err)
	}
	f, err := c.Open("/out.raw", m3fs.FlagW|m3fs.FlagCreate)
	if err != nil {
		log.Fatal(err)
	}
	raw := make([]byte, signalLen*8)
	for i, v := range outSamples {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	if _, err := f.Write(raw); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	// Verify a few samples against the direct circular convolution.
	*checked = true
	rng := rand.New(rand.NewSource(7))
	signal := make([]float64, signalLen)
	for i := range signal {
		signal[i] = math.Sin(float64(i)/40) + 0.2*rng.Float64()
	}
	k := edgeKernel()
	for _, i := range []int{10, 100, 2048, 4000} {
		direct := 0.0
		for j := range k {
			if k[j] != 0 {
				direct += signal[(i-j+signalLen)%signalLen] * k[j]
			}
		}
		if math.Abs(direct-outSamples[i]) > 1e-6 {
			*checked = false
			log.Printf("verify mismatch at %d: %g vs %g", i, direct, outSamples[i])
		}
	}
}

// setupLinkFor builds the downstream end of a link whose upstream id the
// stage learns from the first message's sender — here simplified: the
// upstream polls l.ready, so delegation targets are resolved by selector
// handover through the shared link struct (the root delegated tile rights).
func setupLinkFor(a *m3v.Activity, l *link) (m3v.EpID, m3v.EpID) {
	// The upstream stage id is not needed: delegation goes through the
	// link's published selectors via the shell. For simplicity each stage
	// delegates to "activity id - 1" (its upstream neighbour by spawn
	// order: shell=1, fft=2+fs, ...). We instead delegate to whoever
	// activates: publish our gates and let the upstream take them.
	return setupLink(a, l, a.ID-1)
}

// --- signal math ----------------------------------------------------------

func toComplex(x []float64) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = complex(v, 0)
	}
	return out
}

// edgeKernel is a small discrete Laplacian (edge detector).
func edgeKernel() []float64 {
	k := make([]float64, signalLen)
	k[0] = 2
	k[1] = -1
	k[signalLen-1] = -1
	return k
}

// fft is an iterative radix-2 Cooley-Tukey transform (inverse with inv).
func fft(x []complex128, inv bool) []complex128 {
	n := len(x)
	out := append([]complex128(nil), x...)
	// Bit reversal.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			out[i], out[j] = out[j], out[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inv {
			ang = -ang
		}
		w := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			wn := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := out[i+j]
				v := out[i+j+length/2] * wn
				out[i+j] = u + v
				out[i+j+length/2] = u - v
				wn *= w
			}
		}
	}
	if inv {
		for i := range out {
			out[i] /= complex(float64(n), 0)
		}
	}
	return out
}
