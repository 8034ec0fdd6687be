package main

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// refProbe is the speed probe's CPU time on the reference host:
// cpu_ref_us_per_conf and setup_s are scaled by refProbe over the probe
// time measured in the same run.
const refProbe = 2 * time.Millisecond

// speedProbe is a fixed piece of CPU work, made only of standard-library
// code, whose CPU time tracks how fast the host runs this process at
// the moment. On a shared host the same code's CPU time per
// confirmation and set-up time drift by tens of percent over minutes
// as the neighbours' load changes; the probe drifts with them (see
// README.md).
type speedProbe struct {
	pub    *rsa.PublicKey
	digest [32]byte
	sig    []byte
}

func newSpeedProbe(key *rsa.PrivateKey) (*speedProbe, error) {
	p := &speedProbe{pub: &key.PublicKey, digest: sha256.Sum256([]byte("perfbench speed probe"))}
	var err error
	p.sig, err = rsa.SignPKCS1v15(rand.Reader, key, crypto.SHA256, p.digest[:])
	return p, err
}

// probeSink keeps the probe's results alive.
var probeSink int

// probeReps is how many times measure runs the probe.
const probeReps = 3

// measure runs the probe probeReps times on one locked thread and
// returns the thread CPU time of each: 40 RSA-2048 signature verifies,
// 1 MiB of SHA-256, and 5000 small allocations into a map. The garbage
// is collected before it returns.
func (p *speedProbe) measure() []time.Duration {
	buf := make([]byte, 256<<10)
	runtime.LockOSThread()
	reps := make([]time.Duration, 0, probeReps)
	for rep := 0; rep < probeReps; rep++ {
		start := threadCPU()
		for i := 0; i < 40; i++ {
			if rsa.VerifyPKCS1v15(p.pub, crypto.SHA256, p.digest[:], p.sig) == nil {
				probeSink++
			}
		}
		for i := 0; i < 4; i++ {
			sum := sha256.Sum256(buf)
			probeSink += int(sum[0])
		}
		m := make(map[int][]byte)
		for i := 0; i < 5000; i++ {
			m[i] = make([]byte, 64)
		}
		probeSink += len(m)
		reps = append(reps, threadCPU()-start)
	}
	runtime.UnlockOSThread()
	runtime.GC()
	return reps
}

// threadCPU is the CPU time of the calling OS thread.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
