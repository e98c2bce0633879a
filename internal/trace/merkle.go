package trace

import (
	"crypto/sha256"
	"fmt"
)

// HashSize is the byte width of every Merkle hash (SHA-256).
const HashSize = sha256.Size

// Hash is one Merkle tree node: the SHA-256 of a frame's stored payload
// (leaves) or of two child hashes (interior nodes).
type Hash [HashSize]byte

// String renders the hash as lowercase hex.
func (h Hash) String() string { return fmt.Sprintf("%x", h[:]) }

// Domain-separation prefixes: a leaf hash can never be confused with an
// interior hash, so an attacker cannot re-root a subtree as a frame.
const (
	leafPrefix byte = 0x00
	nodePrefix byte = 0x01
)

// leafHash hashes one frame's stored payload (post-compression — the bytes
// on disk), so verification never needs to inflate a frame.
func leafHash(payload []byte) Hash {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(payload)
	var out Hash
	h.Sum(out[:0])
	return out
}

// nodeHash combines two child hashes into their parent.
func nodeHash(left, right Hash) Hash {
	h := sha256.New()
	h.Write([]byte{nodePrefix})
	h.Write(left[:])
	h.Write(right[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// merkleRoot is the root of the Merkle tree over leaves, built bottom-up:
// each level pairs the nodes of the one below, a lone last node is
// promoted unchanged, and the empty leaf set has the zero hash as its root
// (the root of an empty trace). leaves is not modified.
func merkleRoot(leaves []Hash) Hash {
	if len(leaves) == 0 {
		return Hash{}
	}
	level := leaves
	for len(level) > 1 {
		next := make([]Hash, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, nodeHash(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		level = next
	}
	return level[0]
}
