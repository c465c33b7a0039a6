//go:build !amd64

package buildtags

// Arch names the architecture this file is built for.
func Arch() string { return "other" }
