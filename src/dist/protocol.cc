#include "dist/protocol.h"

#include <cstring>

#include "util/bytes.h"
#include "util/string_util.h"

namespace dd {

namespace {

/// Vectors travel as one length-prefixed byte field holding the raw
/// little-endian element images.
template <typename T>
void PutVec(ByteWriter* out, const std::vector<T>& v) {
  out->Bytes(std::string_view(reinterpret_cast<const char*>(v.data()),
                              v.size() * sizeof(T)));
}

template <typename T>
Status ReadVec(ByteReader* in, std::vector<T>* out, const char* what) {
  std::string_view bytes;
  DD_RETURN_IF_ERROR(in->Bytes(&bytes, what));
  if (bytes.size() % sizeof(T) != 0) {
    return Status::Corruption(
        StrFormat("%s of %zu bytes before offset %zu is not a multiple of %zu",
                  what, bytes.size(), in->offset(), sizeof(T)));
  }
  out->resize(bytes.size() / sizeof(T));
  if (!bytes.empty()) memcpy(out->data(), bytes.data(), bytes.size());
  return Status::OK();
}

Status ReadString(ByteReader* in, std::string* out, const char* what) {
  std::string_view bytes;
  DD_RETURN_IF_ERROR(in->Bytes(&bytes, what));
  out->assign(bytes);
  return Status::OK();
}

void PutBool(ByteWriter* out, bool v) { out->U32(v ? 1 : 0); }

Status ReadBool(ByteReader* in, bool* v, const char* what) {
  const size_t offset = in->offset();
  uint32_t raw = 0;
  DD_RETURN_IF_ERROR(in->U32(&raw, what));
  if (raw > 1) {
    return Status::Corruption(
        StrFormat("%s at offset %zu holds %u, not a bool", what, offset, raw));
  }
  *v = raw == 1;
  return Status::OK();
}

}  // namespace

std::string EncodeHello(const HelloMsg& msg) {
  ByteWriter out;
  out.U32(msg.version);
  out.U32(msg.shard);
  return out.Take();
}

Result<HelloMsg> DecodeHello(const std::string& payload) {
  ByteReader in(payload);
  HelloMsg msg;
  DD_RETURN_IF_ERROR(in.U32(&msg.version, "version"));
  DD_RETURN_IF_ERROR(in.U32(&msg.shard, "shard"));
  DD_RETURN_IF_ERROR(in.ExpectEnd("message"));
  if (msg.version != kDistProtocolVersion) {
    return Status::InvalidArgument(
        StrFormat("peer speaks dist protocol v%u, this build speaks v%u",
                  msg.version, kDistProtocolVersion));
  }
  return msg;
}

std::string EncodeAssign(const AssignMsg& msg) {
  ByteWriter out;
  out.U32(msg.shard);
  out.U32(msg.num_shards);
  out.U64(msg.num_owned);
  PutVec(&out, msg.local_to_global);
  PutVec(&out, msg.owned_boundary);
  out.U32(msg.epochs);
  out.F64(msg.learning_rate);
  out.F64(msg.decay);
  out.F64(msg.l2);
  out.U32(msg.sweeps_per_epoch);
  out.U64(msg.learn_seed);
  out.U32(msg.burn_in);
  out.U32(msg.num_samples);
  out.U64(msg.inference_seed);
  out.U32(msg.sweeps_per_exchange);
  out.Bytes(msg.checkpoint_path);
  out.Bytes(msg.graph_snapshot);
  return out.Take();
}

Result<AssignMsg> DecodeAssign(const std::string& payload) {
  ByteReader in(payload);
  AssignMsg msg;
  DD_RETURN_IF_ERROR(in.U32(&msg.shard, "shard"));
  DD_RETURN_IF_ERROR(in.U32(&msg.num_shards, "num_shards"));
  DD_RETURN_IF_ERROR(in.U64(&msg.num_owned, "num_owned"));
  DD_RETURN_IF_ERROR(ReadVec(&in, &msg.local_to_global, "local_to_global"));
  DD_RETURN_IF_ERROR(ReadVec(&in, &msg.owned_boundary, "owned_boundary"));
  DD_RETURN_IF_ERROR(in.U32(&msg.epochs, "epochs"));
  DD_RETURN_IF_ERROR(in.F64(&msg.learning_rate, "learning_rate"));
  DD_RETURN_IF_ERROR(in.F64(&msg.decay, "decay"));
  DD_RETURN_IF_ERROR(in.F64(&msg.l2, "l2"));
  DD_RETURN_IF_ERROR(in.U32(&msg.sweeps_per_epoch, "sweeps_per_epoch"));
  DD_RETURN_IF_ERROR(in.U64(&msg.learn_seed, "learn_seed"));
  DD_RETURN_IF_ERROR(in.U32(&msg.burn_in, "burn_in"));
  DD_RETURN_IF_ERROR(in.U32(&msg.num_samples, "num_samples"));
  DD_RETURN_IF_ERROR(in.U64(&msg.inference_seed, "inference_seed"));
  DD_RETURN_IF_ERROR(in.U32(&msg.sweeps_per_exchange, "sweeps_per_exchange"));
  DD_RETURN_IF_ERROR(ReadString(&in, &msg.checkpoint_path, "checkpoint_path"));
  DD_RETURN_IF_ERROR(ReadString(&in, &msg.graph_snapshot, "graph_snapshot"));
  DD_RETURN_IF_ERROR(in.ExpectEnd("message"));
  return msg;
}

std::string EncodeReady(const ReadyMsg& msg) {
  ByteWriter out;
  out.U32(msg.phase);
  out.U32(msg.next);
  PutBool(&out, msg.has_result);
  out.Bytes(msg.result);
  return out.Take();
}

Result<ReadyMsg> DecodeReady(const std::string& payload) {
  ByteReader in(payload);
  ReadyMsg msg;
  DD_RETURN_IF_ERROR(in.U32(&msg.phase, "phase"));
  DD_RETURN_IF_ERROR(in.U32(&msg.next, "next"));
  DD_RETURN_IF_ERROR(ReadBool(&in, &msg.has_result, "has_result"));
  DD_RETURN_IF_ERROR(ReadString(&in, &msg.result, "result"));
  DD_RETURN_IF_ERROR(in.ExpectEnd("message"));
  return msg;
}

std::string EncodeEpochStart(const EpochStartMsg& msg) {
  ByteWriter out;
  out.U32(msg.epoch);
  PutVec(&out, msg.weights);
  PutVec(&out, msg.pins);
  return out.Take();
}

Result<EpochStartMsg> DecodeEpochStart(const std::string& payload) {
  ByteReader in(payload);
  EpochStartMsg msg;
  DD_RETURN_IF_ERROR(in.U32(&msg.epoch, "epoch"));
  DD_RETURN_IF_ERROR(ReadVec(&in, &msg.weights, "weights"));
  DD_RETURN_IF_ERROR(ReadVec(&in, &msg.pins, "pins"));
  DD_RETURN_IF_ERROR(in.ExpectEnd("message"));
  return msg;
}

std::string EncodeEpochResult(const EpochResultMsg& msg) {
  ByteWriter out;
  out.U32(msg.epoch);
  PutVec(&out, msg.weights);
  PutVec(&out, msg.boundary_bits);
  PutVec(&out, msg.boundary_estimates);
  return out.Take();
}

Result<EpochResultMsg> DecodeEpochResult(const std::string& payload) {
  ByteReader in(payload);
  EpochResultMsg msg;
  DD_RETURN_IF_ERROR(in.U32(&msg.epoch, "epoch"));
  DD_RETURN_IF_ERROR(ReadVec(&in, &msg.weights, "weights"));
  DD_RETURN_IF_ERROR(ReadVec(&in, &msg.boundary_bits, "boundary_bits"));
  DD_RETURN_IF_ERROR(ReadVec(&in, &msg.boundary_estimates, "boundary_estimates"));
  DD_RETURN_IF_ERROR(in.ExpectEnd("message"));
  return msg;
}

std::string EncodeRoundStart(const RoundStartMsg& msg) {
  ByteWriter out;
  out.U32(msg.round);
  PutVec(&out, msg.weights);
  PutVec(&out, msg.pins);
  return out.Take();
}

Result<RoundStartMsg> DecodeRoundStart(const std::string& payload) {
  ByteReader in(payload);
  RoundStartMsg msg;
  DD_RETURN_IF_ERROR(in.U32(&msg.round, "round"));
  DD_RETURN_IF_ERROR(ReadVec(&in, &msg.weights, "weights"));
  DD_RETURN_IF_ERROR(ReadVec(&in, &msg.pins, "pins"));
  DD_RETURN_IF_ERROR(in.ExpectEnd("message"));
  return msg;
}

std::string EncodeRoundResult(const RoundResultMsg& msg) {
  ByteWriter out;
  out.U32(msg.round);
  PutBool(&out, msg.is_final);
  PutVec(&out, msg.boundary_bits);
  PutVec(&out, msg.boundary_estimates);
  PutVec(&out, msg.owned_marginals);
  out.U64(msg.num_accumulated);
  return out.Take();
}

Result<RoundResultMsg> DecodeRoundResult(const std::string& payload) {
  ByteReader in(payload);
  RoundResultMsg msg;
  DD_RETURN_IF_ERROR(in.U32(&msg.round, "round"));
  DD_RETURN_IF_ERROR(ReadBool(&in, &msg.is_final, "is_final"));
  DD_RETURN_IF_ERROR(ReadVec(&in, &msg.boundary_bits, "boundary_bits"));
  DD_RETURN_IF_ERROR(ReadVec(&in, &msg.boundary_estimates, "boundary_estimates"));
  DD_RETURN_IF_ERROR(ReadVec(&in, &msg.owned_marginals, "owned_marginals"));
  DD_RETURN_IF_ERROR(in.U64(&msg.num_accumulated, "num_accumulated"));
  DD_RETURN_IF_ERROR(in.ExpectEnd("message"));
  return msg;
}

}  // namespace dd
