package transport

import (
	"bytes"
	"testing"
)

// voteExchange is one recorded one-shot vote connection: the bytes the
// candidate sends (preamble plus its VoteRequest frame) and the bytes the
// voter answers with (one VoteGrant frame).
type voteExchange struct {
	request, grant []byte
}

// recordedVoteSession records a realistic election through the
// production UpstreamConns, one connection per exchange as the election
// code dials them: a candidate's VoteRequest and the voter's persisted
// grant, a rival's request for the same epoch and the refusal
// advertising the spent epoch, and a retry one epoch up. The fuzzer
// starts from bytes a real quorum election puts on the replication wire;
// votes travel as gob-in-frame inside replica and primary frames.
func recordedVoteSession(t testing.TB) []voteExchange {
	t.Helper()
	requests := []ReplicaMsg{
		{Vote: &VoteRequest{CandidateID: 1, Epoch: 3, LastSeq: 17}, Epoch: 2},
		{Vote: &VoteRequest{CandidateID: 2, Epoch: 3, LastSeq: 17}, Epoch: 2},
		{Vote: &VoteRequest{CandidateID: 2, Epoch: 4, LastSeq: 17}, Epoch: 3},
	}
	grants := []PrimaryMsg{
		{Grant: &VoteGrant{VoterID: 0, Granted: true, Epoch: 3, LastSeq: 17}, Epoch: 2, LatestSeq: 17},
		{Grant: &VoteGrant{VoterID: 0, Granted: false, Epoch: 3, LastSeq: 17}, Epoch: 2, LatestSeq: 17},
		{Grant: &VoteGrant{VoterID: 0, Granted: true, Epoch: 4, LastSeq: 17}, Epoch: 3, LatestSeq: 17},
	}
	out := make([]voteExchange, len(requests))
	for i := range requests {
		candidate := newByteConn(nil)
		if err := NewUpstreamConn(candidate, 0, 0, 0).WriteReplica(&requests[i]); err != nil {
			t.Fatal(err)
		}
		voter := newByteConn(nil)
		if err := AcceptUpstreamConn(voter, 0, 0, 0).WritePrimary(&grants[i]); err != nil {
			t.Fatal(err)
		}
		out[i] = voteExchange{request: candidate.out.Bytes(), grant: voter.out.Bytes()}
	}
	return out
}

// FuzzDecodeVoteMsg drives the vote protocol's decode paths — the
// voter's acceptor ReplicaMsg decode (preamble check included) and the
// candidate's PrimaryMsg decode, both behind the byte budget exactly as
// the election code builds them — with adversarial bytes. Same contract
// as the other wire fuzzers: typed errors or decoded messages, never a
// panic, never unbounded memory. Decoded VoteRequests additionally go
// through Validate, the first gate answerVote applies.
func FuzzDecodeVoteMsg(f *testing.F) {
	session := recordedVoteSession(f)
	// The whole election as the voter's socket sees it, both directions
	// back to back.
	var election []byte
	for _, x := range session {
		election = append(election, x.request...)
		election = append(election, x.grant...)
	}
	f.Add(session[0].request)                 // a candidate's opening
	f.Add(session[0].grant)                   // a voter's reply
	f.Add(election)                           // the interleaved election
	f.Add(election[:len(election)/2])         // truncated mid-exchange
	f.Add(session[0].request[len(preamble):]) // missing preamble
	f.Add([]byte{})                           // empty stream
	f.Add([]byte{0xff, 0xff, 0xff})           // junk length prefix
	f.Add(bytes.Repeat([]byte{7}, 64))        // repetitive garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		// Voter side: a one-shot vote exchange reads one ReplicaMsg.
		voter := AcceptUpstreamConn(newByteConn(data), binFuzzBudget, 0, 0)
		for i := 0; i < 16; i++ {
			msg, err := voter.ReadReplica()
			if err != nil {
				if !binFuzzTypedError(err) {
					t.Fatalf("voter: untyped error %v", err)
				}
				break // typed error: the voter hangs up here
			}
			if msg.Vote != nil {
				_ = msg.Vote.Validate()
			}
		}
		// Candidate side: the reply must carry a Grant or be dropped.
		candidate := NewUpstreamConn(newByteConn(data), binFuzzBudget, 0, 0)
		for i := 0; i < 16; i++ {
			msg, err := candidate.ReadPrimary()
			if err != nil {
				if !binFuzzTypedError(err) {
					t.Fatalf("candidate: untyped error %v", err)
				}
				return // typed error: a missing vote, never a panic
			}
			if msg.Grant != nil {
				_, _, _ = msg.Grant.Granted, msg.Grant.Epoch, msg.Grant.VoterID
			}
		}
	})
}

// TestVoteFuzzSeedDecodes guards the recorded election against rot:
// every exchange must decode cleanly through both sides' production
// decode stacks, every request passing Validate and the grants
// alternating granted/refused/granted as recorded.
func TestVoteFuzzSeedDecodes(t *testing.T) {
	votes, grants, granted := 0, 0, 0
	for i, x := range recordedVoteSession(t) {
		req, err := AcceptUpstreamConn(newByteConn(x.request), binFuzzBudget, 0, 0).ReadReplica()
		if err != nil {
			t.Fatalf("vote exchange %d: request: %v", i, err)
		}
		if req.Vote == nil {
			t.Fatalf("vote exchange %d: no VoteRequest", i)
		}
		if err := req.Vote.Validate(); err != nil {
			t.Fatalf("vote exchange %d: recorded request invalid: %v", i, err)
		}
		votes++
		reply, err := NewUpstreamConn(newByteConn(x.grant), binFuzzBudget, 0, 0).ReadPrimary()
		if err != nil {
			t.Fatalf("vote exchange %d: grant: %v", i, err)
		}
		if reply.Grant == nil {
			t.Fatalf("vote exchange %d: no VoteGrant", i)
		}
		grants++
		if reply.Grant.Granted {
			granted++
		}
	}
	if votes != 3 || grants != 3 || granted != 2 {
		t.Fatalf("vote session decoded %d requests, %d grants (%d granted); want 3, 3, 2", votes, grants, granted)
	}
}
