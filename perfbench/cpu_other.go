//go:build !amd64

package main

// haveAvx2Fma is false off amd64, where blas has only portable kernels.
func haveAvx2Fma() bool { return false }
