#include "service/admission.hh"

namespace hastm {

const char *
admissionPolicyName(AdmissionPolicy p)
{
    switch (p) {
      case AdmissionPolicy::DropTail:          return "droptail";
      case AdmissionPolicy::DelayBackpressure: return "backpressure";
    }
    return "?";
}

} // namespace hastm
