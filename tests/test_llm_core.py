"""LLM substrate: types, tokenizer, sampling, registry, intent."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GenerationError, UnknownModelError
from repro.llm import (
    ChatMessage,
    GenerateConfig,
    analyze_prompt,
    get_model,
    list_models,
    register_model,
)
from repro.llm.sampling import apply_temperature, sample, sample_jitter, softmax, top_p_filter
from repro.llm.tokenizer import count_tokens, encode


class TestTypes:
    def test_message_constructors(self):
        assert ChatMessage.user("hi").role == "user"
        assert ChatMessage.system("s").role == "system"
        assert ChatMessage.assistant("a").role == "assistant"

    def test_generate_config_validation(self):
        with pytest.raises(ValueError):
            GenerateConfig(temperature=-1)
        with pytest.raises(ValueError):
            GenerateConfig(top_p=0)
        with pytest.raises(ValueError):
            GenerateConfig(max_tokens=0)

    def test_paper_defaults(self):
        config = GenerateConfig()
        assert config.temperature == 0.2
        assert config.top_p == 0.95


class TestTokenizer:
    def test_short_words_single_token(self):
        assert encode("a bc def") == ["a", "bc", "def"]

    def test_long_words_chunked(self):
        assert encode("configuration") == ["conf", "igur", "atio", "n"]

    def test_punctuation_counted(self):
        assert count_tokens("a.b") == 3

    def test_count_scales_with_text(self):
        assert count_tokens("word " * 100) == 100

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(["_", "__init__", "_private_name", "x", "abcd",
                                 "abcde", "configuration" * 3, "42", "3.14",
                                 "é", "naïveté", "Straße", "日本語テキスト", "٣٤٥٦٧",
                                 "(", "}", "->", "...", "'", " ", "\n", "\t"]),
                st.text(max_size=12),
            ),
            max_size=20,
        ).map("".join)
    )
    def test_count_equals_len_of_encode(self, text):
        assert count_tokens(text) == len(encode(text))


class TestSampling:
    def test_softmax_normalizes(self):
        probs = softmax(np.array([1.0, 2.0, 3.0]))
        assert probs.sum() == pytest.approx(1.0)
        assert probs[2] > probs[0]

    def test_temperature_zero_is_argmax(self):
        logits = np.array([0.1, 5.0, 0.1])
        for _ in range(5):
            assert sample(logits, np.random.default_rng(0), temperature=0.0) == 1

    def test_low_temperature_concentrates(self):
        logits = np.array([0.0, 1.0])
        rng = np.random.default_rng(0)
        cold = [sample(logits, rng, temperature=0.1) for _ in range(100)]
        rng = np.random.default_rng(0)
        hot = [sample(logits, rng, temperature=10.0) for _ in range(100)]
        assert sum(cold) > sum(hot)

    def test_top_p_filters_tail(self):
        probs = np.array([0.5, 0.3, 0.15, 0.05])
        kept = top_p_filter(probs, 0.8)
        assert kept[3] == 0.0
        assert kept.sum() == pytest.approx(1.0)

    def test_top_p_validation(self):
        with pytest.raises(ValueError):
            top_p_filter(np.array([1.0]), 0.0)

    def test_apply_temperature_validation(self):
        with pytest.raises(ValueError):
            apply_temperature(np.array([1.0]), -0.5)

    def test_jitter_zero_scale_or_temp(self):
        rng = np.random.default_rng(0)
        assert sample_jitter(rng, scale=0.0, temperature=1.0, top_p=1.0) == 0
        assert sample_jitter(rng, scale=2.0, temperature=0.0, top_p=1.0) == 0

    def test_jitter_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            j = sample_jitter(rng, scale=1.5, temperature=1.0, top_p=1.0)
            assert -5 <= j <= 5

    def test_empty_logits_raise(self):
        with pytest.raises(ValueError):
            sample(np.array([]), np.random.default_rng(0))


class TestRegistry:
    def test_builtin_models_registered(self):
        names = list_models()
        for model in ("o3", "gemini-2.5-pro", "claude-sonnet-4", "llama-3.3-70b"):
            assert f"sim/{model}" in names

    def test_unknown_model_raises(self):
        with pytest.raises(UnknownModelError):
            get_model("sim/gpt-7")

    def test_instances_cached(self):
        a = get_model("sim/o3")
        b = get_model("sim/o3")
        assert a.provider is b.provider

    def test_custom_provider_registration(self):
        class Echo:
            name = "custom/echo"

            def generate(self, messages, config):
                from repro.llm.types import ModelOutput, ModelUsage

                return ModelOutput(
                    model=self.name,
                    completion=messages[-1].content,
                    usage=ModelUsage(1, 1),
                )

        register_model("custom/echo", Echo)
        out = get_model("custom/echo").generate("ping")
        assert out.completion == "ping"


class TestIntent:
    CFG = (
        "I would like to have a 3-node workflow consisting of one producer and "
        "two consumer tasks, where producer generates grid and particles "
        "datasets, consumer1 reads grid and consumer2 reads particles datasets. "
        "Producer requires 3 processes, and each consumer runs on a single "
        "process. Please provide the workflow configuration file for the "
        "Wilkins workflow system."
    )

    def test_configuration_intent(self):
        intent = analyze_prompt(self.CFG)
        assert intent.experiment == "configuration"
        assert intent.system == "wilkins"
        assert intent.variant == "original"
        assert not intent.fewshot

    def test_fewshot_detected(self):
        intent = analyze_prompt(
            self.CFG + "\n\nHere is an example configuration file for a simple "
            "2-node workflow for the Wilkins workflow system:\n```\ntasks:\n```"
        )
        assert intent.fewshot

    def test_annotation_intent(self):
        prompt = (
            "You are assisting in the development of a simple producer-consumer "
            "workflow using the ADIOS2 system. The producer task code is "
            "provided below. Annotate this task code in order to use it with "
            "the ADIOS2 system.\n\nint main() {}"
        )
        intent = analyze_prompt(prompt)
        assert intent.experiment == "annotation"
        assert intent.system == "adios2"

    def test_translation_intent_and_direction(self):
        prompt = (
            "Task codes are provided below for the PyCOMPSs workflow system "
            "for a 2-node workflow. Your task is to translate these codes to "
            "use the Parsl system.\n\n@task..."
        )
        intent = analyze_prompt(prompt)
        assert intent.experiment == "translation"
        assert intent.source == "pycompss"
        assert intent.target == "parsl"
        assert intent.cell_system == ("pycompss", "parsl")

    def test_no_system_raises(self):
        with pytest.raises(GenerationError, match="no known workflow system"):
            analyze_prompt("please write the configuration file for Airflow")

    def test_unclassifiable_raises(self):
        with pytest.raises(GenerationError):
            analyze_prompt("tell me about the Henson workflow system")
